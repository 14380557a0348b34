"""Finite simplicial graphs with a fixed vertex order, and the structural
predicates the rest of the package is built on.

The listed vertex order is canonical: word normal forms, fiber products and
every deterministic search order downstream derive from it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, islice

from .errors import GraphParseError


class SimplicialGraph:
    """Finite undirected loop-free graph.

    Vertices are string labels that a word can name (no whitespace, no
    '^'); ``vertices`` fixes the canonical total order. ``_masks[i]`` is
    the bitmask of the indices of vertex i's neighbours, the one record
    of the adjacency: the predicates here and the id tables of ``words``
    and ``extgraph`` read it, and ``edges`` and ``neighbors()`` turn it
    into labels on each call. ``_alphabet`` holds the letter-id tables
    of ``words``, built on first use; ``_pools`` maps a radius to the
    pool, adjacency rows and kept automorphisms of ``extgraph``'s
    search, each built on the first search at that radius.
    """

    __slots__ = ("vertices", "_index", "_masks", "_alphabet", "_pools")

    def __init__(self, vertices, edges=()):
        vertices = tuple(vertices)
        for v in vertices:
            if not v or not isinstance(v, str):
                raise ValueError("vertex labels must be nonempty strings")
            if "^" in v or v.split() != [v]:
                raise ValueError(
                    f"vertex label {v!r} holds whitespace or '^', "
                    "which the word syntax cannot write"
                )
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex labels")
        index = {v: i for i, v in enumerate(vertices)}
        masks = [0] * len(vertices)
        for e in edges:
            u, v = e
            if not (isinstance(u, str) and isinstance(v, str)):
                raise ValueError(f"edge {u!r}-{v!r} has a label that is not a string")
            if u == v:
                raise ValueError(f"loop edge at {u!r}")
            i, j = index.get(u), index.get(v)
            if i is None or j is None:
                raise ValueError(f"edge {u!r}-{v!r} mentions an unknown vertex")
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self.vertices = vertices
        self._index = index
        self._masks = tuple(masks)
        self._alphabet = None
        self._pools = {}

    @property
    def edges(self):
        """The edges as label pairs, each in canonical order."""
        return frozenset(_ordered_edges(self))

    def __contains__(self, v):
        return v in self._index

    def __len__(self):
        return len(self.vertices)

    def __eq__(self, other):
        if not isinstance(other, SimplicialGraph):
            return NotImplemented
        return self.vertices == other.vertices and self._masks == other._masks

    def __hash__(self):
        return hash((self.vertices, self._masks))

    def __repr__(self):
        return f"SimplicialGraph({list(self.vertices)!r}, {sorted(self.edges)!r})"

    def index(self, v):
        try:
            return self._index[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v!r}") from None

    def adjacent(self, u, v):
        if u not in self._index or v not in self._index:
            raise ValueError(f"unknown vertex in pair ({u!r}, {v!r})")
        return self._masks[self._index[u]] >> self._index[v] & 1 == 1

    def neighbors(self, v):
        m = self._masks[self.index(v)]
        return frozenset([u for j, u in enumerate(self.vertices) if m >> j & 1])

    def degree(self, v):
        return self._masks[self.index(v)].bit_count()


def make_path(n):
    """Path graph on n vertices x1..xn."""
    if n < 1:
        raise ValueError("a path graph needs at least one vertex")
    vs = [f"x{i}" for i in range(1, n + 1)]
    return SimplicialGraph(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def make_cycle(n):
    """Cycle graph on n vertices x1..xn."""
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    vs = [f"x{i}" for i in range(1, n + 1)]
    edges = [(vs[i], vs[(i + 1) % n]) for i in range(n)]
    return SimplicialGraph(vs, edges)


def make_tripod(p, q, r):
    """Tripod: a degree-3 center x with three legs of p, q and r vertices.

    Leg vertices are a1..ap, b1..bq, c1..cr, with a1, b1, c1 adjacent to x.
    """
    if min(p, q, r) < 1:
        raise ValueError("each leg needs at least one vertex")
    vs = ["x"]
    edges = []
    for stem, length in (("a", p), ("b", q), ("c", r)):
        prev = "x"
        for i in range(1, length + 1):
            v = f"{stem}{i}"
            vs.append(v)
            edges.append((prev, v))
            prev = v
    return SimplicialGraph(vs, edges)


def complement(g):
    """Same vertices; edge exactly where g has a non-edge."""
    edges = [(u, v) for u, v in combinations(g.vertices, 2) if not g.adjacent(u, v)]
    return SimplicialGraph(g.vertices, edges)


def induced(g, keep):
    """Induced subgraph on ``keep``, preserving the canonical vertex order."""
    keep = set(keep)
    for v in keep:
        if v not in g:
            raise ValueError(f"unknown vertex {v!r}")
    vs = [v for v in g.vertices if v in keep]
    edges = [(u, v) for u, v in g.edges if u in keep and v in keep]
    return SimplicialGraph(vs, edges)


def remove(g, drop):
    """Induced subgraph on the complement of ``drop``."""
    drop = set(drop)
    for v in drop:
        if v not in g:
            raise ValueError(f"unknown vertex {v!r}")
    return induced(g, [v for v in g.vertices if v not in drop])


def _levels(masks, start):
    """The breadth-first levels from the vertex of index start, as vertex
    masks: the start, its neighbours, their new neighbours, and so on."""
    seen = level = 1 << start
    levels = []
    while level:
        levels.append(level)
        reach = 0
        while level:
            low = level & -level
            level ^= low
            reach |= masks[low.bit_length() - 1]
        level = reach & ~seen
        seen |= level
    return levels


def is_connected(g):
    return len(g) > 0 and sum(_levels(g._masks, 0)) == (1 << len(g)) - 1


def _tree_levels(g):
    """The breadth-first levels from vertex 0 when g is a tree, else None."""
    if sum(map(int.bit_count, g._masks)) != 2 * (len(g) - 1):
        return None
    levels = _levels(g._masks, 0)
    return levels if sum(levels) == (1 << len(g)) - 1 else None


def is_tree(g):
    return _tree_levels(g) is not None


def induced_maps(wanted, order, domains, row):
    """Yield, depth first, the injective maps of the pattern vertices
    ``order`` that keep every adjacency the pattern asks for.

    Candidates are nonnegative integers, and a set of them is a bitmask.
    ``wanted(u, v)`` is True when the images of u and v must be adjacent,
    False when they must not be, and None when the pair is unconstrained.
    ``row(d, mask)`` is the mask of the candidates in ``mask`` adjacent to
    d. Vertex v tries the candidates of the mask ``domains[v]`` in
    increasing order. At depth k the unused candidates are narrowed by
    the image of each constrained j < k in turn, to those whose adjacency
    to it equals wanted(order[k], order[j]); so row(d, mask) is asked
    only of the candidates that passed every earlier j. Each map is a new
    dict whose keys follow ``order``.
    """
    wants = [
        [(j, want) for j in range(k) if (want := wanted(v, order[j])) is not None]
        for k, v in enumerate(order)
    ]
    yield from _extend_maps(0, order, domains, row, wants, [], 0)


def _extend_maps(k, order, domains, row, wants, chosen, used):
    """The depth-k step of ``induced_maps``. It is a module function, not
    a closure over itself: a self-referencing closure is a reference
    cycle, which would keep ``row`` and all it holds alive until the
    cyclic collector runs."""
    if k == len(order):
        yield dict(zip(order, chosen))
        return
    cand = domains[order[k]] & ~used
    for j, want in wants[k]:
        adj = row(chosen[j], cand)
        cand = adj if want else cand & ~adj
    while cand:
        low = cand & -cand
        cand ^= low
        chosen.append(low.bit_length() - 1)
        yield from _extend_maps(k + 1, order, domains, row, wants, chosen, used | low)
        chosen.pop()


def _vertex_maps(g, wanted, order, domains):
    """``induced_maps`` into the graph g: ``domains`` maps each pattern
    vertex to some of g's vertices, tried in canonical order, and each
    map sends the pattern vertices to labels of g."""
    nbrs, index = g._masks, g._index
    masks = {v: sum(1 << index[u] for u in vs) for v, vs in domains.items()}
    for found in induced_maps(wanted, order, masks, lambda d, mask: nbrs[d] & mask):
        yield {v: g.vertices[i] for v, i in found.items()}


def find_induced_embeddings(pattern, target):
    """Yield the injective vertex maps pattern -> target preserving
    adjacency and non-adjacency.

    Pattern vertices are processed in descending-degree order (ties by
    canonical order); target candidates are tried in canonical order, so
    the maps come in a deterministic order.
    """
    order = sorted(
        pattern.vertices, key=lambda v: (-pattern.degree(v), pattern.index(v))
    )
    domains = dict.fromkeys(order, target.vertices)
    yield from _vertex_maps(target, pattern.adjacent, order, domains)


def automorphisms(g):
    """At most len(g) automorphisms of g other than the identity, as
    index tuples p (vertex i goes to vertex p[i]): the first ones in
    lexicographic order of p.

    They come from the one backtracker, mapping g into itself with
    vertex i tried over the vertices of its degree in increasing order.
    An injective map of g's vertices to themselves that keeps every
    adjacency and non-adjacency is an automorphism, and the maps come in
    lexicographic order, so the identity comes first and is dropped. The
    cap keeps the work small on graphs with many automorphisms (the star
    K_{1,12} has 12! of them).
    """
    nbrs = g._masks
    degrees = [m.bit_count() for m in nbrs]
    domains = [sum(1 << j for j, e in enumerate(degrees) if e == d) for d in degrees]
    maps = induced_maps(
        lambda u, v: nbrs[u] >> v & 1 == 1,
        range(len(g)),
        domains,
        lambda d, mask: nbrs[d] & mask,
    )
    return tuple([tuple(p.values()) for p in islice(maps, 1, len(g) + 1)])


@dataclass(frozen=True)
class HairyDecomposition:
    """A longest induced path (the spine) plus the leaves hanging off its
    interior vertices."""

    spine: tuple
    hairs: dict  # interior spine vertex -> tuple of leaf vertices

    @property
    def m(self):
        return len(self.spine)

    @property
    def total_hairs(self):
        return sum(len(hs) for hs in self.hairs.values())


def _least(mask):
    return (mask & -mask).bit_length() - 1


def _diameter_path(masks, levels):
    """A longest path of a tree, as vertex indices, by double BFS: from
    vertex 0, whose breadth-first ``levels`` the caller has, to the least
    vertex a of its last level, from a to the least vertex b of its last
    level, then back from b through a's levels, each step to the one
    neighbour in the level before. In a tree the path is induced. It runs
    from its lower-indexed end."""
    a = _least(levels[-1])
    levels = _levels(masks, a)
    path = [_least(levels[-1])]
    for level in reversed(levels[:-1]):
        path.append(_least(masks[path[-1]] & level))
    if path[0] > path[-1]:
        path.reverse()
    return path


def is_hairy_path(t):
    """Decompose a tree as spine-plus-hairs, or return None.

    Succeeds exactly when the tree has no induced tripod with all three
    legs of length two: every vertex off a longest path must then be a
    leaf hanging from an interior spine vertex.
    """
    levels = _tree_levels(t)
    if levels is None:
        raise ValueError("input graph is not a tree")
    vs, masks = t.vertices, t._masks
    spine = _diameter_path(masks, levels)
    on_spine = sum(1 << i for i in spine)
    interior = on_spine & ~(1 << spine[0] | 1 << spine[-1])
    hairs = {i: [] for i in spine}
    for i, m in enumerate(masks):
        if on_spine >> i & 1:
            continue
        # a leaf has one neighbour, which must be an interior spine vertex
        if m & (m - 1) or not m & interior:
            return None
        hairs[m.bit_length() - 1].append(vs[i])
    return HairyDecomposition(
        spine=tuple([vs[i] for i in spine]),
        hairs={vs[i]: tuple(hs) for i, hs in hairs.items() if hs},
    )


#: Roles of the 7-tuple certificate, in emission order.
OBSTRUCTION_ROLES = ("x", "p", "q", "r", "a", "b", "c")

#: The legs a-p, b-q, c-r around the center x. The pairs among a, b, c
#: are free, and every other pair of roles is a non-edge.
_TRIPOD_EDGES = {"ax", "bx", "cx", "ap", "bq", "cr"}


def _tripod_wanted(u, v):
    pair = u + v if u < v else v + u
    return None if pair in ("ab", "ac", "bc") else pair in _TRIPOD_EDGES


def find_tripod_obstruction(g):
    """Search for seven distinct vertices x,p,q,r,a,b,c with {x,p,q,r}
    independent, a adjacent to exactly x,p among them, b to exactly x,q,
    c to exactly x,r. Adjacency among a,b,c is unconstrained.

    Returns the role map (keyed in ``OBSTRUCTION_ROLES`` order) of the
    first tuple when the roles x,a,p,b,q,c,r are tried in that order,
    each over the vertices in canonical order, or None. A graph admitting
    such a tuple embeds into no path graph's extension graph.
    """
    # The pattern gives x three neighbours and a, b, c two each, so these
    # degree filters prune the search without changing its order.
    inner = [v for v in g.vertices if g.degree(v) >= 2]
    center = [v for v in inner if g.degree(v) >= 3]
    outer = g.vertices
    domains = dict(x=center, a=inner, p=outer, b=inner, q=outer, c=inner, r=outer)
    found = next(_vertex_maps(g, _tripod_wanted, "xapbqcr", domains), None)
    return None if found is None else {r: found[r] for r in OBSTRUCTION_ROLES}


def all_trees(n):
    """All trees on n vertices, one per isomorphism class, labeled v1..vn.

    Grown by leaf attachment with canonical-code deduplication.
    """
    if n < 1:
        raise ValueError("n must be positive")
    level = [()]  # edge tuples over integer vertices 0..k-1
    for k in range(2, n + 1):
        seen = {}
        for edges in level:
            for attach in range(k - 1):
                cand = edges + ((attach, k - 1),)
                code = _tree_code(k, cand)
                if code not in seen:
                    seen[code] = cand
        level = [seen[c] for c in sorted(seen)]
    out = []
    for edges in level:
        labels = [f"v{i + 1}" for i in range(n)]
        out.append(
            SimplicialGraph(labels, [(labels[a], labels[b]) for a, b in edges])
        )
    return out


def _tree_code(k, edges):
    """Canonical string of a free tree on vertices 0..k-1 (AHU at the center)."""
    nbrs = {i: set() for i in range(k)}
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    alive = set(range(k))
    deg = {i: len(nbrs[i]) for i in range(k)}
    layer = [i for i in alive if deg[i] <= 1]
    while len(alive) > 2:
        nxt = []
        for leaf in layer:
            alive.discard(leaf)
            for m in nbrs[leaf]:
                if m in alive:
                    deg[m] -= 1
                    if deg[m] == 1:
                        nxt.append(m)
        layer = nxt

    def enc(v, parent):
        return "(" + "".join(sorted(enc(c, v) for c in nbrs[v] if c != parent)) + ")"

    return min(enc(c, None) for c in alive)


# ---------------------------------------------------------------------------
# Text and JSON formats


def _edge_ids(g):
    """The edges as index pairs (i, j), i < j, in increasing order."""
    rows = enumerate(g._masks)
    return [(i, j) for i, m in rows for j in range(i + 1, m.bit_length()) if m >> j & 1]


def _ordered_edges(g):
    vs = g.vertices
    return [(vs[i], vs[j]) for i, j in _edge_ids(g)]


def format_graph(g):
    lines = ["vertices: " + " ".join(g.vertices)]
    for u, v in _ordered_edges(g):
        lines.append(f"edge: {u} {v}")
    return "\n".join(lines) + "\n"


def graph_to_json(g):
    return {
        "vertices": list(g.vertices),
        "edges": [[u, v] for u, v in _ordered_edges(g)],
    }


def parse_graph(text, name="<graph>"):
    """Parse either the line-oriented text format or the JSON form."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphParseError(f"{name}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
        if not isinstance(data, dict) or not isinstance(data.get("vertices"), list):
            raise GraphParseError(f"{name}: JSON graph needs a 'vertices' array")
        edges = data.get("edges", [])
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 for e in edges
        ):
            raise GraphParseError(f"{name}: JSON graph edges must be label pairs")
        return _read_graph(data["vertices"], edges, name)

    vertices = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("vertices:"):
            if vertices is not None:
                raise GraphParseError(f"{name}:{lineno}: repeated 'vertices:' line")
            vertices = line[len("vertices:"):].split()
        elif line.startswith("edge:"):
            parts = line[len("edge:"):].split()
            if len(parts) != 2:
                raise GraphParseError(
                    f"{name}:{lineno}: an edge line needs exactly two labels"
                )
            edges.append(tuple(parts))
        else:
            raise GraphParseError(f"{name}:{lineno}: unrecognized line {line!r}")
    if vertices is None:
        raise GraphParseError(f"{name}: missing 'vertices:' line")
    return _read_graph(vertices, edges, name)


def _read_graph(vertices, edges, name):
    """The graph on the parsed labels, a refused one as GraphParseError."""
    try:
        return SimplicialGraph(vertices, edges)
    except (ValueError, TypeError) as exc:
        raise GraphParseError(f"{name}: {exc}") from None


def load_graph(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphParseError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None
    return parse_graph(text, name=str(path))
