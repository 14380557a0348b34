"""Group maps given by generator images, the maps that vertex maps
induce, and the bounded checks on them.

A vertex map between graphs that carries edges to edges sends each
generator of the target's group to the product of its preimage fiber;
fibers are independent sets, so the product order only matters for
determinism and is fixed to the canonical vertex order.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from operator import attrgetter
from types import MappingProxyType

from .graphs import _edge_ids
from .words import (
    Letter,
    _alphabet,
    _bits,
    _encode,
    _extend_reduced_ids,
    _inverse_ids,
    _normal_form_ids,
    _state_counts,
    _steps,
    _word_count,
    _words,
    commute_elements,
    format_word,
    inverse,
)


class GroupMap:
    """Group homomorphism described by generator images.

    ``domain`` is the graph presenting the domain group; each of its
    vertices maps to a word over ``codomain``'s vertices. ``apply`` is
    literal substitution and never reduces; a negative letter maps to the
    inverse of its generator's image. The three fields are read-only:
    the checks trust what was validated here.
    """

    __slots__ = ("_domain", "_codomain", "_images")

    def __init__(self, domain, codomain, images):
        for v in domain.vertices:
            if v not in images:
                raise ValueError(f"no image word for generator {v!r}")
        # The bounded checks read images through the codomain's letter
        # table, so every image letter must be in it, sign included.
        ids = _alphabet(codomain).ids
        kept = {}
        for v, w in images.items():
            if v not in domain:
                raise ValueError(f"image for unknown domain vertex {v!r}")
            w = kept[v] = tuple(w)
            for lt in w:
                if lt.base not in codomain:
                    raise ValueError(f"image of {v!r} uses unknown vertex {lt.base!r}")
                if lt not in ids:
                    raise ValueError(f"image of {v!r} uses unknown letter {lt!r}")
        self._domain = domain
        self._codomain = codomain
        self._images = MappingProxyType(kept)

    domain = property(attrgetter("_domain"))
    codomain = property(attrgetter("_codomain"))
    images = property(attrgetter("_images"))

    def apply(self, w):
        """The literal image of w; ValueError for a letter off the domain."""
        vertices = self._domain.vertices
        images = self._images
        out = []
        for c in _encode(_alphabet(self._domain), w):
            image = images[vertices[c >> 1]]
            out.extend(inverse(image) if c & 1 else image)
        return tuple(out)


def induced_map(source, target, mapping):
    """The ``GroupMap`` target -> source induced by a vertex map source ->
    target that carries edges to edges: each target generator goes to
    the product of its fiber, the identity when the fiber is empty."""
    for v in source.vertices:
        if v not in mapping:
            raise ValueError(f"no image for source vertex {v!r}")
    for v, w in mapping.items():
        if v not in source:
            raise ValueError(f"unknown source vertex {v!r}")
        if w not in target:
            raise ValueError(f"unknown target vertex {w!r}")
    index, masks = target._index, target._masks
    image = [index[mapping[v]] for v in source.vertices]
    if not all(masks[image[i]] >> image[j] & 1 for i, j in _edge_ids(source)):
        raise ValueError("vertex map does not carry edges to edges")
    fibers = {w: [] for w in target.vertices}
    for v in source.vertices:
        fibers[mapping[v]].append(Letter(v, 1))
    return GroupMap(target, source, fibers)


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
    return all(
        commute_elements(m.codomain, m.images[u], m.images[v])
        for u, v in combinations(m.domain.vertices, 2)
        if not m.domain.adjacent(u, v)
    )


def _image_codes(m):
    """The codomain letter ids of the image of each domain letter id, as
    lists, which the callers must not modify."""
    ids = _alphabet(m.codomain).ids
    codes = []
    for v in m.domain.vertices:
        image = [ids[lt] for lt in m.images[v]]
        codes += (image, _inverse_ids(image))
    return codes


def _format_ids(g, w):
    letters = _alphabet(g).letters
    return format_word(letters[c] for c in w)


def _times(stops, image, code):
    """The reduced id list of the reduced id list ``image`` times the ids
    ``code``, as a new list."""
    out = image.copy()
    _extend_reduced_ids(stops, out, code)
    return out


def _reduced_images(domain, stops, codes, max_len):
    """Yield (w, reduced image of w, leaves) as letter ids for each
    canonical domain word w of the walk of ``_words``: the words shorter
    than max_len, the empty word included, each with the mask of its leaf
    children of length max_len, whose images are not built. The words
    come in depth-first preorder, so the image of w extends the stacked
    image of w[:-1]. The yielded list must not be modified."""
    stack = []
    for w, leaves in _words(domain, max_len, True):
        image = _times(stops, stack[len(w) - 1], codes[w[-1]]) if w else []
        del stack[len(w):]
        stack.append(image)
        yield w, image, leaves


def _walks(keep, add, blocked, t):
    """Whether the ids t can be walked from the blocked mask ``blocked``."""
    for c in t:
        if blocked >> c & 1:
            return False
        blocked = blocked & keep[c] | add[c]
    return True


def bounded_injectivity(m, max_len):
    """Check that no canonical domain word w with 1 <= |w| <= max_len has a
    literal image that reduces to the empty word; ``checked`` is the
    number of those words, and the violations come in the walk's
    preorder, which is ascending id-tuple order.

    One meet-in-the-middle pass. With s = max_len - max_len // 2 and
    r = max_len // 2, each such w is u t with |u| = min(|w|, s) and
    |t| <= r. A factor of a canonical word is canonical, and u t is a word
    of the walk exactly when t can be walked from the blocked mask that
    the walk holds after u. The image of u t is trivial exactly when the
    normal forms of image(u) and of image(t)^-1 are equal. So the
    canonical words t with |t| <= r are filed under that normal form of
    their inverse images, and each u of length s looks up its own; a
    shorter u violates when its image is trivial. The work is that of the
    ball B(s), not B(max_len - 1), and ``checked`` is counted per blocked
    mask by ``_word_count``.

    The violations need no sort: the u walk runs in preorder, a shorter u
    comes before its extensions, and each key lists its tails t in the
    preorder of the t walk, so u t comes out in ascending id-tuple order.

    The check stays on words, not on elements of the ball B(s): a
    ``GroupMap`` need not be a homomorphism, since its images need not
    satisfy the domain's relators, so two words for one domain element
    may have different images."""
    keep, add = steps = _steps(m.domain, True)
    checked = _word_count(steps, max_len) - 1
    stops = _alphabet(m.codomain).stops
    codes = _image_codes(m)
    every = (1 << len(codes)) - 1
    half = max_len // 2
    ends = {}
    for t, image, leaves in _reduced_images(m.domain, stops, codes, half):
        back = _inverse_ids(image)
        ends.setdefault(tuple(_normal_form_ids(stops, back)), []).append(t)
        for c in _bits(leaves):
            key = tuple(_normal_form_ids(stops, codes[c ^ 1] + back))
            ends.setdefault(key, []).append(t + (c,))
    found = []
    for u, image, leaves in _reduced_images(
        m.domain, stops, codes, max_len - half
    ):
        if u and not image:
            found.append(u)
        blocked = every & ~leaves  # the mask the walk holds at u
        for c in _bits(leaves):
            tails = ends.get(tuple(_normal_form_ids(stops, image + codes[c])))
            if tails:
                start = blocked & keep[c] | add[c]
                found += [u + (c,) + t for t in tails if _walks(keep, add, start, t)]
    violations = [_format_ids(m.domain, w) for w in found]
    return {"bound": max_len, "checked": checked, "violations": violations}


def check_surviving(m, v_prime, max_len):
    """Bounded check that the literal image of every reduced domain word
    keeps the letter v_prime alive: no two v_prime letters of opposite
    signs with neither a v_prime letter nor a link letter between them
    (an innermost cancellation of v_prime).

    Every reduced word is checked, not one per element: the literal image
    depends on the word, not only on the element it represents.

    Survival is read off the literal image by a scan with four states:
    0 at the start and after a link letter, 1 after a positive and 2
    after an inverse v_prime letter, and 3, which absorbs, once a
    cancellation is seen. So the state of w + (c,) is ``step[s][c]`` for
    the state s of w, and ``_state_counts`` counts the words per (blocked
    mask, state) class without walking them: ``checked`` is their total,
    and the words in state 3 are the violations. Only when there are some
    are words built, in the preorder of ``_words``, going down only into
    the children whose (blocked mask, state, remaining length) class
    leads to state 3.
    """
    if v_prime not in m.codomain:
        raise ValueError(f"unknown vertex {v_prime!r}")
    p = 2 * m.codomain.index(v_prime)
    stop = _alphabet(m.codomain).stops[p]
    codes = _image_codes(m)

    def scan(s, code):
        for d in code:
            if stop >> d & 1:
                if d | 1 != p | 1:
                    s = 0
                elif s + (d & 1) == 2:
                    return 3
                else:
                    s = 1 + (d & 1)
        return s

    step = [[scan(s, code) for code in codes] for s in range(3)]
    step.append([3] * len(codes))
    keep, add = steps = _steps(m.domain, False)
    counts = _state_counts(steps, max_len, step)
    violations = []
    if counts[3]:
        def children(blocked, s):
            return [
                (c, blocked & keep[c] | add[c], step[s][c])
                for c in range(len(codes))
                if not blocked >> c & 1
            ]

        @cache
        def doomed(blocked, s, r):
            """Whether a word with this blocked mask and state, or an
            extension of it by at most r ids, is in state 3."""
            return s == 3 or r > 0 and any(
                doomed(b, t, r - 1) for _, b, t in children(blocked, s)
            )

        stack = [((), 0, 0)]
        while stack:
            w, blocked, s = stack.pop()
            if s == 3:
                violations.append(_format_ids(m.domain, w))
            r = max_len - len(w)
            if r:
                stack += [
                    (w + (c,), b, t)
                    for c, b, t in reversed(children(blocked, s))
                    if doomed(b, t, r - 1)
                ]
    return {
        "vertex": v_prime,
        "bound": max_len,
        "checked": sum(counts),
        "violations": violations,
    }


def check_support_propagation(m, trigger, required, max_len):
    """Bounded check: every element whose support contains ``trigger``
    has an image whose support meets ``required``. A canonical word is
    reduced, so its support is the set of its bases. The words of length
    max_len come from ``_words`` as leaf masks; a leaf without the
    trigger is skipped, and only the others have their images reduced."""
    if trigger not in m.domain:
        raise ValueError(f"unknown trigger vertex {trigger!r}")
    required = frozenset(required)
    for v in required:
        if v not in m.codomain:
            raise ValueError(f"unknown required vertex {v!r}")
    stops = _alphabet(m.codomain).stops
    codes = _image_codes(m)
    t = 2 * m.domain.index(trigger)
    wanted = sum(3 << 2 * m.codomain.index(v) for v in required)
    checked = 0
    violations = []
    for w, image, leaves in _reduced_images(m.domain, stops, codes, max_len):
        if t in w or t + 1 in w:
            checked += 1
            if not any(wanted >> d & 1 for d in image):
                violations.append(_format_ids(m.domain, w))
        else:
            leaves &= 3 << t
        checked += leaves.bit_count()
        for c in _bits(leaves):
            if not any(wanted >> d & 1 for d in _times(stops, image, codes[c])):
                violations.append(_format_ids(m.domain, w + (c,)))
    return {
        "trigger": trigger,
        "required": sorted(required),
        "bound": max_len,
        "checked": checked,
        "violations": violations,
    }
