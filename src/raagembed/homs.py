"""Graph homomorphisms and the group homomorphisms they induce.

A vertex map between graphs that carries edges to edges sends each
generator of the target's group to the product of its preimage fiber;
fibers are independent sets, so the product order only matters for
determinism and is fixed to the canonical vertex order.
"""

from __future__ import annotations

from .words import (
    Letter,
    canonical_words,
    commute_elements,
    extend_reduced,
    format_word,
    inverse,
    reduced_words,
)


class GraphHom:
    """Vertex map source -> target."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source, target, mapping):
        for v in source.vertices:
            if v not in mapping:
                raise ValueError(f"no image for source vertex {v!r}")
        for v, w in mapping.items():
            if v not in source:
                raise ValueError(f"unknown source vertex {v!r}")
            if w not in target:
                raise ValueError(f"unknown target vertex {w!r}")
        self.source = source
        self.target = target
        self.mapping = dict(mapping)

    def __call__(self, v):
        return self.mapping[v]

    def fiber(self, w):
        """Preimage of a target vertex, in canonical source order."""
        return tuple(v for v in self.source.vertices if self.mapping[v] == w)


def check_graph_hom(h):
    """True iff every source edge maps to a target edge."""
    return all(h.target.adjacent(h(u), h(v)) for u, v in h.source.edges)


class GroupMap:
    """Group homomorphism described by generator images.

    ``domain`` is the graph presenting the domain group; each of its
    vertices maps to a word over ``codomain``'s vertices. ``apply`` is
    literal substitution and never reduces. The inverse of each image is
    computed once, at construction.
    """

    __slots__ = ("domain", "codomain", "images", "inverse_images")

    def __init__(self, domain, codomain, images):
        for v in domain.vertices:
            if v not in images:
                raise ValueError(f"no image word for generator {v!r}")
        for v, w in images.items():
            for lt in w:
                if lt.base not in codomain:
                    raise ValueError(
                        f"image of {v!r} uses unknown vertex {lt.base!r}"
                    )
        self.domain = domain
        self.codomain = codomain
        self.images = {v: tuple(w) for v, w in images.items()}
        self.inverse_images = {v: inverse(w) for v, w in self.images.items()}

    def apply(self, w):
        out = []
        for lt in w:
            images = self.images if lt.sign > 0 else self.inverse_images
            out.extend(images[lt.base])
        return tuple(out)


class InducedHom(GroupMap):
    """The group homomorphism induced by a graph homomorphism: each
    generator of the target graph's group maps to the ordered product of
    its fiber (the identity when the fiber is empty)."""

    __slots__ = ("hom", "fiber_order")

    def __init__(self, hom):
        if not check_graph_hom(hom):
            raise ValueError("vertex map does not carry edges to edges")
        fiber_order = {w: hom.fiber(w) for w in hom.target.vertices}
        images = {
            w: tuple(Letter(v, 1) for v in fiber)
            for w, fiber in fiber_order.items()
        }
        super().__init__(hom.target, hom.source, images)
        self.hom = hom
        self.fiber_order = fiber_order


def kill_generators(g, kill):
    """Retraction onto the group of the graph minus ``kill``: those
    generators map to the identity, everything else to itself."""
    from .graphs import remove

    sub = remove(g, kill)
    incl = GraphHom(sub, g, {v: v for v in sub.vertices})
    return InducedHom(incl)


def compose(outer, inner):
    """outer after inner, as generator images."""
    if inner.codomain != outer.domain:
        raise ValueError("maps do not compose")
    return GroupMap(
        inner.domain,
        outer.codomain,
        {v: outer.apply(w) for v, w in inner.images.items()},
    )


def check_relator_preservation(m):
    """Well-definedness: images of generators that commute in the domain
    group (non-adjacent vertices) must commute in the codomain group."""
    vs = m.domain.vertices
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if not m.domain.adjacent(vs[i], vs[j]):
                if not commute_elements(
                    m.codomain, m.images[vs[i]], m.images[vs[j]]
                ):
                    return False
    return True


def _reduced_images(m, max_len):
    """Yield (w, reduced image of w) for each nonempty canonical domain
    word of length <= max_len. The words come in depth-first preorder, so
    the image of w extends the stacked image of w[:-1]. The yielded list
    must not be modified."""
    stack = [[]]
    for w in canonical_words(m.domain, max_len):
        if w:
            del stack[len(w):]
            image = stack[-1].copy()
            extend_reduced(m.codomain, image, m.apply(w[-1:]))
            stack.append(image)
            yield w, image


def bounded_injectivity(m, max_len):
    """Check that no nontrivial domain element of length <= max_len maps
    to the identity; one canonical word per element is enumerated."""
    checked = 0
    violations = []
    for w, image in _reduced_images(m, max_len):
        checked += 1
        if not image:
            violations.append(format_word(w))
    return {"bound": max_len, "checked": checked, "violations": violations}


def check_surviving(m, v_prime, max_len):
    """Bounded check that the literal image of every reduced domain word
    keeps the letter v_prime alive: no two v_prime letters of opposite
    signs with neither a v_prime letter nor a link letter between them
    (an innermost cancellation of v_prime).

    Every reduced word is enumerated, not one per element: distinct
    representatives have distinct literal images. One state is stacked
    per depth of the preorder: whether the image has such a pair, and the
    sign of its last v_prime letter (0 once a link letter follows it).
    """
    if v_prime not in m.codomain:
        raise ValueError(f"unknown vertex {v_prime!r}")
    link = m.codomain.neighbors(v_prime)
    checked = 0
    violations = []
    stack = [(False, 0)]
    for w in reduced_words(m.domain, max_len):
        checked += 1
        if not w:
            continue
        del stack[len(w):]
        cancelled, last = stack[-1]
        for base, sign in m.apply(w[-1:]):
            if base == v_prime:
                cancelled = cancelled or sign == -last
                last = sign
            elif base in link:
                last = 0
        stack.append((cancelled, last))
        if cancelled:
            violations.append(format_word(w))
    return {
        "vertex": v_prime,
        "bound": max_len,
        "checked": checked,
        "violations": violations,
    }


def check_support_propagation(m, trigger, required, max_len):
    """Bounded check: every element whose support contains ``trigger``
    has an image whose support meets ``required``. A canonical word is
    reduced, so its support is the set of its bases."""
    required = frozenset(required)
    checked = 0
    violations = []
    for w, image in _reduced_images(m, max_len):
        if all(lt.base != trigger for lt in w):
            continue
        checked += 1
        if required.isdisjoint(lt.base for lt in image):
            violations.append(format_word(w))
    return {
        "trigger": trigger,
        "required": sorted(required),
        "bound": max_len,
        "checked": checked,
        "violations": violations,
    }

