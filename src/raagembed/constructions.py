"""The two embedding-producing local moves, the tripod-to-path pipeline,
hairy-path witnesses and the non-embeddability certificate.

Every procedure returns a witness and runs its own verifier; the exact
checks (pairwise commutation, relator preservation) happen inside the
move, the bounded ones (injectivity up to a word length) are separate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation
from .extgraph import ext_vertex, format_ext_vertex, verify_witness
from .graphs import (
    SimplicialGraph,
    graph_to_json,
    is_connected,
    is_hairy_path,
    find_tripod_obstruction,
    make_path,
    remove,
)
from .homs import (
    GroupMap,
    bounded_injectivity,
    check_relator_preservation,
    check_support_propagation,
    check_surviving,
    compose,
    induced_map,
)
from .words import (
    Letter,
    format_word,
    is_trivial,
    iterated_commutator,
    normal_form,
    word,
)


def _freshen(candidate, used):
    """Append primes until the label avoids everything in ``used``."""
    name = candidate
    while name in used:
        name += "'"
    used.add(name)
    return name


@dataclass
class MoveResult:
    kind: str
    vertex: str
    k: int
    group_map: GroupMap  # old graph's group -> new graph's group
    new_labels: tuple = ()  # labels created by the move, in path/hexagon order
    ext_witness: dict = None  # deg1k: old vertex -> ExtVertex over new graph

    @property
    def new_graph(self):
        return self.group_map.codomain

    @property
    def renaming(self):
        """deg3: old vertex -> new label, read off the one-letter images of
        ``group_map``."""
        if self.kind != "deg3":
            return None
        return {
            old: image[0].base
            for old, image in self.group_map.images.items()
            if old != self.vertex
        }

    def to_json(self):
        out = {
            "move": self.kind,
            "vertex": self.vertex,
            "k": self.k,
            "new_graph": graph_to_json(self.new_graph),
        }
        if self.kind == "deg1k":
            out["witness"] = {
                v: format_ext_vertex(e) for v, e in self.ext_witness.items()
            }
        else:
            out["renaming"] = self.renaming
            out["generator_images"] = {
                v: format_word(w) for v, w in self.group_map.images.items()
            }
        return out


def _leaf_split(g, v):
    """The neighbors of v in index order, split into the degree-one ones
    and the rest."""
    nbrs = sorted(g.neighbors(v), key=g.index)
    return [u for u in nbrs if g.degree(u) == 1], [u for u in nbrs if g.degree(u) != 1]


def _block_witness(path, v, leaves, block):
    """Images of v and its k leaves when v expands into ``block``, 2k+1
    consecutive vertices of ``path``: v goes to the first block vertex
    conjugated by the rest of the block and its j-th leaf to the 2j-th
    block vertex. A leafless v is a block of one and goes to itself."""
    out = {v: ext_vertex(path, block[0], tuple([Letter(b, 1) for b in block[1:]]))}
    for j, leaf in enumerate(leaves, start=1):
        out[leaf] = ext_vertex(path, block[2 * j - 1])
    return out


def move_deg1k(g, x):
    """Delete the k degree-one neighbors of a degree-(k+2) vertex x and
    replace x itself by a path of 2k+1 vertices between its two other
    neighbors.

    The witness places x on the first path vertex conjugated by the rest
    of the path and the deleted leaves on the even path vertices;
    ``verify_witness`` checks that the new extension graph induces exactly
    the old graph on those images.
    """
    if x not in g:
        raise ValueError(f"unknown vertex {x!r}")
    leaves, others = _leaf_split(g, x)
    k = len(leaves) + len(others) - 2
    if k < 1:
        raise ValueError(f"vertex {x!r} has degree {k + 2}, need at least 3")
    if len(leaves) != k or len(others) != 2:
        raise ValueError(
            f"vertex {x!r} needs exactly {k} degree-one neighbors and two others;"
            f" found {len(leaves)} and {len(others)}"
        )
    b, c = others

    dropped = {x, *leaves}
    used = {v for v in g.vertices if v not in dropped}
    path_labels = [_freshen(f"x{i}", used) for i in range(1, 2 * k + 2)]
    new_vertices = []
    for v in g.vertices:
        if v == x:
            new_vertices += path_labels
        elif v not in dropped:
            new_vertices.append(v)
    edges = [(u, v) for u, v in g.edges if u not in dropped and v not in dropped]
    edges += [(path_labels[i], path_labels[i + 1]) for i in range(2 * k)]
    edges += [(b, path_labels[0]), (path_labels[-1], c)]
    new_graph = SimplicialGraph(new_vertices, edges)

    block = _block_witness(new_graph, x, leaves, path_labels)
    witness = {
        v: block[v] if v in block else ext_vertex(new_graph, v) for v in g.vertices
    }

    if not verify_witness(g, new_graph, witness):
        raise InvariantViolation("replacement witness does not induce the old graph")

    group_map = GroupMap(
        g, new_graph, {v: witness[v].key for v in g.vertices}
    )
    return MoveResult(
        kind="deg1k",
        vertex=x,
        k=k,
        group_map=group_map,
        new_labels=tuple(path_labels),
        ext_witness=witness,
    )


def move_deg3(g, x):
    """Replace the tripod centered at a degree-3 vertex x by a hexagon
    through three new vertices x1, x2, x3; every other vertex v is renamed
    v1. Collapsing x1, x2, x3 back onto x is a graph homomorphism whose
    induced group map sends x to x1*x2*x3, and that map is injective.
    """
    if x not in g:
        raise ValueError(f"unknown vertex {x!r}")
    nbrs = sorted(g.neighbors(x), key=g.index)
    if len(nbrs) != 3:
        raise ValueError(f"vertex {x!r} has degree {len(nbrs)}, need exactly 3")
    a, b, c = nbrs

    used = set()
    renaming = {}
    new_vertices = []
    hexagon = {}
    for v in g.vertices:
        if v == x:
            for i in (1, 2, 3):
                lbl = _freshen(f"x{i}", used)
                hexagon[i] = lbl
                new_vertices.append(lbl)
        else:
            lbl = _freshen(v + "1", used)
            renaming[v] = lbl
            new_vertices.append(lbl)

    x1, x2, x3 = hexagon[1], hexagon[2], hexagon[3]
    edges = [
        (renaming[a], x3),
        (x3, renaming[b]),
        (renaming[b], x1),
        (x1, renaming[c]),
        (renaming[c], x2),
        (x2, renaming[a]),
    ]
    edges += [
        (renaming[u], renaming[v]) for u, v in g.edges if x not in (u, v)
    ]
    new_graph = SimplicialGraph(new_vertices, edges)

    mapping = {renaming[v]: v for v in renaming}
    mapping.update({x1: x, x2: x, x3: x})
    group_map = induced_map(new_graph, g, mapping)
    if not check_relator_preservation(group_map):
        raise InvariantViolation("hexagon replacement broke a commuting pair")
    return MoveResult(
        kind="deg3",
        vertex=x,
        k=3,
        group_map=group_map,
        new_labels=(x1, x2, x3),
    )


def deg3_claim_reports(move, length=5):
    """Bounded checks behind the hexagon move's injectivity argument.

    With a the least neighbor of the replaced vertex: dropping a (and its
    copy) leaves a restricted map that keeps every remaining generator
    other than x2, x3 alive; any element using x keeps x2 or x3 in its
    image's support; and the full map keeps a's copy alive.
    """
    if move.kind != "deg3":
        raise ValueError("need a hexagon move result")
    g1 = move.group_map.domain
    g2 = move.new_graph
    x = move.vertex
    a = min(g1.neighbors(x), key=g1.index)
    a1 = move.renaming[a]
    x1, x2, x3 = move.new_labels

    g1p = remove(g1, {a})
    g2p = remove(g2, {a1})
    # every fiber other than a's misses a1, so each image survives as is
    images = move.group_map.images
    phi1 = GroupMap(g1p, g2p, {v: images[v] for v in g1p.vertices})

    keep_alive = {}
    for v in g2p.vertices:
        if v in (x2, x3):
            continue
        keep_alive[v] = check_surviving(phi1, v, length)
    claim2 = check_support_propagation(phi1, x, {x2, x3}, length)
    claim3 = check_surviving(move.group_map, a1, length)
    return {
        "dropped": a,
        "restricted_surviving": keep_alive,
        "support_propagation": claim2,
        "full_surviving": claim3,
    }


def t2_graph():
    """The tripod with three two-vertex legs, labeled as used throughout:
    legs p-a, q-b, r-c around the center x."""
    return SimplicialGraph(
        ["p", "a", "x", "b", "q", "c", "r"],
        [("p", "a"), ("a", "x"), ("x", "b"), ("b", "q"), ("x", "c"), ("c", "r")],
    )


def _deg1k_candidate(g):
    for v in g.vertices:
        leaves, others = _leaf_split(g, v)
        if leaves and len(others) == 2:
            return v
    return None


@dataclass
class PipelineResult:
    moves: list
    composite: GroupMap
    external: dict
    ends_in_cycle12: bool
    relators_preserved: bool
    injectivity: dict

    @property
    def stages(self):
        """The tripod, then the graph after each move."""
        return [self.moves[0].group_map.domain] + [m.new_graph for m in self.moves]

    def chain_description(self):
        names = ["tripod T(2,2,2)"]
        for mv in self.moves:
            names.append(f"{mv.kind} at {mv.vertex} -> {len(mv.new_graph)} vertices")
        names.append("[external] 12-cycle group into the path on 22 vertices")
        return names

    def to_json(self):
        return {
            "chain": self.chain_description(),
            "stages": [graph_to_json(s) for s in self.stages],
            "moves": [m.to_json() for m in self.moves],
            "composite_images": {
                v: format_word(w) for v, w in self.composite.images.items()
            },
            "relators_preserved": self.relators_preserved,
            "injectivity": self.injectivity,
            "external": self.external,
            "ends_in_cycle12": self.ends_in_cycle12,
        }


EXTERNAL_CYCLE_TO_PATH = {
    "kind": "external-citation",
    "statement": "the group of the 12-cycle embeds into the group of the 22-vertex path",
    "reference": "Lee & Lee (2016), Theorem 3.16: G(C_m) embeds into G(P_{2m-2})",
    "verified_by_this_tool": False,
}


def build_t2_pipeline(length):
    """Chain the hexagon move and the leaf-path moves from the tripod
    T(2,2,2) down to the 12-cycle, composing the group maps; the last hop
    to the 22-vertex path is a recorded citation, not a computed map.

    ``length`` bounds the injectivity check of the composite.
    """
    t2 = t2_graph()
    moves = [move_deg3(t2, "x")]
    chain = moves[0].group_map
    g = moves[0].new_graph
    while True:
        x = _deg1k_candidate(g)
        if x is None:
            break
        mv = move_deg1k(g, x)
        chain = compose(mv.group_map, chain)
        moves.append(mv)
        g = mv.new_graph
    ends = (
        len(g) == 12
        and all(g.degree(v) == 2 for v in g.vertices)
        and is_connected(g)
    )
    relators = check_relator_preservation(chain)
    if not ends or not relators:
        raise InvariantViolation("pipeline did not reach the 12-cycle cleanly")
    inj = bounded_injectivity(chain, length)
    return PipelineResult(
        moves=moves,
        composite=chain,
        external=dict(EXTERNAL_CYCLE_TO_PATH),
        ends_in_cycle12=ends,
        relators_preserved=relators,
        injectivity=inj,
    )


@dataclass
class HairyWitness:
    path: SimplicialGraph
    assignment: dict  # tree vertex -> ExtVertex over the path
    decomposition: object

    @property
    def n(self):
        return len(self.path)

    def to_json(self):
        return {
            "n": self.n,
            "path": graph_to_json(self.path),
            "witness": {
                v: format_ext_vertex(e) for v, e in self.assignment.items()
            },
        }


def hairy_witness(t):
    """Embed a hairy path graph into the extension graph of a path on
    m + 2k vertices (spine length m, k hairs in total).

    Each interior spine vertex with j hairs expands to a block of 2j+1
    path vertices; the spine vertex maps to the first block vertex
    conjugated by the rest of the block and its hairs to the even block
    vertices. Hairless spine vertices keep their own name and map to
    themselves.
    """
    dec = is_hairy_path(t)
    if dec is None:
        raise ValueError(
            "tree is not a hairy path graph: it contains an induced tripod "
            "with all legs of length two; see certify_non_embeddability"
        )
    used = {v for v in dec.spine if v not in dec.hairs}
    blocks = {}
    for v in dec.spine:
        hs = dec.hairs.get(v, ())
        blocks[v] = (
            [_freshen(f"{v}{i}", used) for i in range(1, 2 * len(hs) + 2)] if hs else [v]
        )
    path_vertices = [u for block in blocks.values() for u in block]
    n = len(path_vertices)
    path = SimplicialGraph(
        path_vertices,
        [(path_vertices[i], path_vertices[i + 1]) for i in range(n - 1)],
    )
    assignment = {}
    for v, block in blocks.items():
        assignment.update(_block_witness(path, v, dec.hairs.get(v, ()), block))

    if not verify_witness(t, path, assignment):
        raise InvariantViolation("hairy witness does not induce the tree")
    if n != dec.m + 2 * dec.total_hairs:
        raise InvariantViolation("path length disagrees with spine plus hair count")
    return HairyWitness(path=path, assignment=assignment, decomposition=dec)


def obstruction_holds(g, roles):
    """Whether the role map is a tripod-style obstruction tuple in g:
    seven distinct vertices, x, p, q, r pairwise non-adjacent, and each of
    a, b, c adjacent to x and to exactly one of p, q, r (its own)."""
    x, p, q, r = roles["x"], roles["p"], roles["q"], roles["r"]
    a, b, c = roles["a"], roles["b"], roles["c"]
    quad = [x, p, q, r]
    if len({x, p, q, r, a, b, c}) != 7:
        return False
    if any(g.adjacent(u, v) for i, u in enumerate(quad) for v in quad[i + 1:]):
        return False
    want = {
        a: {x: True, p: True, q: False, r: False},
        b: {x: True, q: True, p: False, r: False},
        c: {x: True, r: True, p: False, q: False},
    }
    return all(
        g.adjacent(v, u) == flag
        for v, spec_ in want.items()
        for u, flag in spec_.items()
    )


def certify_non_embeddability(g):
    """Certificate that a graph embeds into no path graph's extension
    graph, built from the tripod-style obstruction tuple; None when no
    tuple exists. The tuple is checked with ``obstruction_holds`` before
    the certificate is returned."""
    roles = find_tripod_obstruction(g)
    if roles is None:
        return None
    if not obstruction_holds(g, roles):
        raise InvariantViolation(f"obstruction tuple fails its pattern: {roles}")
    cases = []
    for middle, far, witness in (
        ("p", "q", "b"),
        ("q", "p", "a"),
        ("p", "r", "c"),
        ("r", "p", "a"),
        ("q", "r", "c"),
        ("r", "q", "b"),
    ):
        cases.append(
            {
                "same_side_order": [roles["x"], roles[middle], roles[far]],
                "witness_role": witness,
                "witness_vertex": roles[witness],
            }
        )
    return {
        "statement": "no induced embedding into the extension graph of any path graph",
        "roles": roles,
        "independent_set": [roles[r] for r in ("x", "p", "q", "r")],
        "argument": [
            "an embedding could be conjugated so the independent set lands on "
            "base path vertices",
            "two of p,q,r then sit on the same side of x; whichever pair it is, "
            "the listed witness vertex commutes with the image of the nearer one, "
            "hence with the image of x or of the farther one, although it is "
            "adjacent to both",
        ],
        "cases": cases,
        "note": "exactly the proved hypotheses are encoded; weaker patterns may "
        "also obstruct but are not claimed",
    }


def counterexample_check():
    """Confirm the iterated-commutator refutation over the 5-vertex path:
    bracketing x2*x4 against x3, x1, x5 stays nontrivial although both
    single-generator versions vanish, so the product cannot split into a
    product of conjugates of those brackets."""
    g = make_path(5)
    main = iterated_commutator([word("x2", "x4"), word("x3"), word("x1"), word("x5")])
    reduced_main = normal_form(g, main)
    first = iterated_commutator([word("x2"), word("x3"), word("x1"), word("x5")])
    second = iterated_commutator([word("x4"), word("x3"), word("x1"), word("x5")])
    report = {
        "main_nontrivial": len(reduced_main) > 0,
        "main_reduced_word": format_word(reduced_main),
        "main_reduced_length": len(reduced_main),
        "x2_bracket_trivial": is_trivial(g, first),
        "x4_bracket_trivial": is_trivial(g, second),
    }
    report["no_conjugate_product_decomposition"] = (
        report["main_nontrivial"]
        and report["x2_bracket_trivial"]
        and report["x4_bracket_trivial"]
    )
    if not report["no_conjugate_product_decomposition"]:
        raise InvariantViolation(f"commutator computation went wrong: {report}")
    return report
