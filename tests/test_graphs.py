import json
import random
from itertools import combinations, islice, permutations

import pytest

from raagembed.acceptance import theorem_b_variants
from raagembed.constructions import obstruction_holds
from raagembed.errors import GraphParseError
from raagembed.graphs import (
    OBSTRUCTION_ROLES,
    SimplicialGraph,
    _diameter_path,
    _ordered_edges,
    _tree_levels,
    _tripod_wanted,
    _vertex_maps,
    all_trees,
    automorphisms,
    complement,
    find_induced_embeddings,
    find_tripod_obstruction,
    format_graph,
    graph_to_json,
    induced,
    induced_maps,
    is_connected,
    is_hairy_path,
    is_tree,
    make_cycle,
    make_path,
    make_tripod,
    parse_graph,
    remove,
)


def is_independent(g, vs):
    """Brute-force reference: no pair of vs is adjacent."""
    return not any(g.adjacent(u, v) for u, v in combinations(vs, 2))


def components(g):
    """Brute-force reference: the connected components as frozensets,
    ordered by least vertex index, by a search over labels."""
    seen = set()
    out = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        out.append(frozenset(comp))
    return out


def _reference_farthest(g, start):
    """BFS over labels; farthest vertex from start (ties by canonical
    order) and parents."""
    dist = {start: 0}
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for u in sorted(g.neighbors(v), key=g.index):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    parent[u] = v
                    nxt.append(u)
        frontier = nxt
    far = max(dist, key=lambda v: (dist[v], -g.index(v)))
    return far, parent


def _reference_diameter_path(g):
    """Reference for ``_diameter_path``: double BFS over labels."""
    a, _ = _reference_farthest(g, g.vertices[0])
    b, parent = _reference_farthest(g, a)
    path = [b]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    if g.index(path[0]) > g.index(path[-1]):
        path.reverse()
    return path


def shuffled_trees(max_n, orders, seed=0):
    """Every tree with <= max_n vertices, each in ``orders`` seeded
    shuffles of its vertex order."""
    rng = random.Random(seed)
    for n in range(1, max_n + 1):
        for t in all_trees(n):
            for _ in range(orders):
                vs = list(t.vertices)
                rng.shuffle(vs)
                yield SimplicialGraph(vs, t.edges)


def is_isomorphic(g, h):
    """Brute-force reference: graph isomorphism by exhaustive search."""
    if len(g) != len(h) or len(g.edges) != len(h.edges):
        return False
    degs = sorted(g.degree(v) for v in g.vertices)
    if degs != sorted(h.degree(v) for v in h.vertices):
        return False
    return next(find_induced_embeddings(g, h), None) is not None


def random_graph_inputs(seed, count, max_n=10):
    """Seeded (vertex labels, edge list) inputs on 1..max_n vertices, edge
    densities from sparse to dense, in shuffled vertex order."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        labels = [f"v{i}" for i in range(n)]
        p = rng.choice((0.1, 0.2, 0.35, 0.5, 0.8))
        edges = [e for e in combinations(labels, 2) if rng.random() < p]
        rng.shuffle(labels)
        yield labels, edges


def random_graphs(seed, count, max_n=10):
    """The graphs of ``random_graph_inputs``."""
    for labels, edges in random_graph_inputs(seed, count, max_n):
        yield SimplicialGraph(labels, edges)


def random_tree_inputs(seed, count, max_n=12):
    """Seeded labelled trees on 1..max_n vertices, as (vertex labels, edge
    list): vertex k hangs from a random earlier one, and the vertex order
    is shuffled."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        labels = [f"t{i}" for i in range(n)]
        edges = [(labels[rng.randrange(k)], labels[k]) for k in range(1, n)]
        rng.shuffle(labels)
        yield labels, edges


def _reference_ordered_edges(g, edges):
    """The canonical edge order as it was before the masks: the label
    pairs sorted by their index pairs."""
    return sorted(edges, key=lambda e: (g.index(e[0]), g.index(e[1])))


def test_adjacency_matches_the_input_edges():
    inputs = list(random_graph_inputs(11, 300)) + list(random_tree_inputs(4, 300))
    inputs.append(([], []))
    for labels, edges in inputs:
        nbrs = {v: set() for v in labels}
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        at = {v: i for i, v in enumerate(labels)}
        pairs = {(u, v) if at[u] < at[v] else (v, u) for u, v in edges}
        # every edge given as listed, reversed, and again
        g = SimplicialGraph(labels, edges + [(v, u) for u, v in edges] + edges)
        assert g._masks == tuple(sum(1 << at[u] for u in nbrs[v]) for v in labels)
        assert g.edges == pairs and type(g.edges) is frozenset
        assert _ordered_edges(g) == _reference_ordered_edges(g, pairs)
        for u in labels:
            assert g.neighbors(u) == nbrs[u] and type(g.neighbors(u)) is frozenset
            assert g.degree(u) == len(nbrs[u])
            for v in labels:
                assert g.adjacent(u, v) is (v in nbrs[u]), (labels, edges, u, v)
        same = SimplicialGraph(g.vertices, g.edges)
        assert same == g and hash(same) == hash(g)
        for dropped in pairs:
            assert SimplicialGraph(labels, pairs - {dropped}) != g


def test_unknown_labels_raise_value_error():
    p5 = make_path(5)
    with pytest.raises(ValueError, match=r"^unknown vertex in pair \('x1', 'zz'\)$"):
        p5.adjacent("x1", "zz")
    with pytest.raises(ValueError, match=r"^unknown vertex in pair \('zz', 'x1'\)$"):
        p5.adjacent("zz", "x1")
    with pytest.raises(ValueError, match="^unknown vertex 'zz'$"):
        p5.neighbors("zz")
    with pytest.raises(ValueError, match="^unknown vertex 'zz'$"):
        p5.degree("zz")


def test_connectivity_matches_the_label_search():
    graphs = list(random_graphs(12, 600)) + list(shuffled_trees(8, 1))
    graphs.append(SimplicialGraph([]))
    split = 0
    for g in graphs:
        connected = len(components(g)) == 1
        assert is_connected(g) == connected, g
        assert is_tree(g) == (connected and len(g.edges) == len(g) - 1), g
        split += not connected
    assert 100 < split < len(graphs) - 100


def test_diameter_path_matches_the_label_search():
    for t in shuffled_trees(11, 3):
        assert is_tree(t)
        got = [t.vertices[i] for i in _diameter_path(t._masks, _tree_levels(t))]
        assert got == _reference_diameter_path(t), t


def test_make_path():
    assert len(make_path(1)) == 1 and not make_path(1).edges
    p5 = make_path(5)
    assert p5.edges == frozenset(
        {("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5")}
    )
    p22 = make_path(22)
    assert len(p22) == 22 and len(p22.edges) == 21
    with pytest.raises(ValueError):
        make_path(0)


def test_make_cycle():
    c3 = make_cycle(3)
    assert len(c3.edges) == 3
    c12 = make_cycle(12)
    assert len(c12) == 12
    assert all(c12.degree(v) == 2 for v in c12.vertices)
    assert len(components(c12)) == 1
    with pytest.raises(ValueError):
        make_cycle(2)


def test_make_tripod():
    t2 = make_tripod(2, 2, 2)
    assert len(t2) == 7
    assert t2.degree("x") == 3
    t322 = make_tripod(3, 2, 2)
    assert len(t322) == 8
    star = make_tripod(1, 1, 1)
    assert sorted(star.degree(v) for v in star.vertices) == [1, 1, 1, 3]
    with pytest.raises(ValueError):
        make_tripod(0, 1, 1)


def test_complement():
    p3 = make_path(3)
    assert complement(p3).edges == frozenset({("x1", "x3")})
    t2 = make_tripod(2, 2, 2)
    assert complement(complement(t2)) == t2
    k4 = SimplicialGraph("abcd", [("a", "b"), ("a", "c"), ("a", "d"),
                                  ("b", "c"), ("b", "d"), ("c", "d")])
    assert not complement(k4).edges


def test_link_induced_remove():
    p5 = make_path(5)
    assert p5.neighbors("x3") == {"x2", "x4"}
    t2 = make_tripod(2, 2, 2)
    star = induced(t2, {"x", "a1", "b1", "c1"})
    assert is_isomorphic(star, make_tripod(1, 1, 1))
    two = remove(p5, {"x3"})
    assert sorted(sorted(c) for c in components(two)) == [["x1", "x2"], ["x4", "x5"]]
    with pytest.raises(ValueError):
        p5.neighbors("zz")


def test_independence_components_tree():
    t2 = make_tripod(2, 2, 2)
    assert is_independent(t2, {"x", "a2", "b2", "c2"})
    assert not is_independent(t2, {"x", "a1"})
    p5 = make_path(5)
    # removing the middle vertex's link leaves three path components
    pieces = components(remove(p5, p5.neighbors("x3")))
    assert sorted(sorted(c) for c in pieces) == [["x1"], ["x3"], ["x5"]]
    assert not is_tree(make_cycle(12))
    assert is_tree(t2)


def test_find_induced_embeddings_edge_into_path():
    p2 = make_path(2)
    p3 = make_path(3)
    maps = list(find_induced_embeddings(p2, p3))
    assert maps == [
        {"x1": "x1", "x2": "x2"},
        {"x1": "x2", "x2": "x1"},
        {"x1": "x2", "x2": "x3"},
        {"x1": "x3", "x2": "x2"},
    ]
    assert list(islice(find_induced_embeddings(p2, p3), 2)) == maps[:2]


def test_find_induced_embeddings_negative_cases():
    t2 = make_tripod(2, 2, 2)
    assert next(find_induced_embeddings(t2, make_path(22)), None) is None
    # an induced three-vertex path needs a non-edge; the triangle has none
    assert list(find_induced_embeddings(make_path(3), make_cycle(3))) == []


def test_embeddings_preserve_the_whole_adjacency_matrix():
    t = make_tripod(1, 1, 1)
    g = make_tripod(2, 2, 2)
    for m in find_induced_embeddings(t, g):
        for u in t.vertices:
            for v in t.vertices:
                if u != v:
                    assert t.adjacent(u, v) == g.adjacent(m[u], m[v])


def _brute_force_embeddings(pattern, target):
    """Every injective map in the degree order, kept when it preserves
    adjacency and non-adjacency, sorted by the target indices."""
    order = sorted(
        pattern.vertices, key=lambda v: (-pattern.degree(v), pattern.index(v))
    )
    maps = [
        dict(zip(order, images))
        for images in permutations(target.vertices, len(order))
        if all(
            pattern.adjacent(u, v) == target.adjacent(images[i], images[j])
            for (i, u), (j, v) in combinations(enumerate(order), 2)
        )
    ]
    return sorted(maps, key=lambda m: [target.index(m[v]) for v in order])


def _random_graph(rng, n, prefix):
    labels = [f"{prefix}{i}" for i in range(n)]
    edges = [(u, v) for u, v in combinations(labels, 2) if rng.random() < 0.5]
    return SimplicialGraph(labels, edges)


def _embedding_cases():
    targets = [make_path(n) for n in range(3, 7)] + [make_cycle(n) for n in range(4, 7)]
    for n in range(1, 6):
        for t in all_trees(n):
            for g in targets:
                yield t, g
    rng = random.Random(5)
    for _ in range(40):
        yield (
            _random_graph(rng, rng.randint(1, 4), "p"),
            _random_graph(rng, rng.randint(3, 6), "t"),
        )


def test_find_induced_embeddings_matches_brute_force():
    for pattern, target in _embedding_cases():
        got = [list(m.items()) for m in find_induced_embeddings(pattern, target)]
        want = [list(m.items()) for m in _brute_force_embeddings(pattern, target)]
        assert got == want, (pattern, target)


def _reference_induced_maps(wanted, order, domains, adjacent):
    """The backtracker as it was before candidate masks: vertex v tries
    the list ``domains[v]`` in order, and a candidate c for order[k] is
    kept when adjacent(c, image of order[j]) equals wanted(order[k],
    order[j]) for every constrained j < k, checked one pair at a time."""
    wants = [
        [(j, want) for j in range(k) if (want := wanted(v, order[j])) is not None]
        for k, v in enumerate(order)
    ]
    chosen = []

    def extend(k):
        if k == len(order):
            yield dict(zip(order, chosen))
            return
        for c in domains[order[k]]:
            if c not in chosen and all(
                adjacent(c, chosen[j]) == want for j, want in wants[k]
            ):
                chosen.append(c)
                yield from extend(k + 1)
                chosen.pop()

    yield from extend(0)


def _same_maps(got, want):
    assert [list(m.items()) for m in got] == [list(m.items()) for m in want]


def test_mask_backtracker_matches_the_reference_on_graphs():
    for pattern, target in _embedding_cases():
        order = sorted(
            pattern.vertices, key=lambda v: (-pattern.degree(v), pattern.index(v))
        )
        domains = dict.fromkeys(order, target.vertices)
        _same_maps(
            find_induced_embeddings(pattern, target),
            _reference_induced_maps(pattern.adjacent, order, domains, target.adjacent),
        )


def test_mask_backtracker_matches_the_reference_on_tripod_roles():
    for g in _random_graphs(3, 16):
        inner = [v for v in g.vertices if g.degree(v) >= 2]
        domains = dict(
            x=[v for v in inner if g.degree(v) >= 3],
            a=inner, p=g.vertices, b=inner, q=g.vertices, c=inner, r=g.vertices,
        )
        _same_maps(
            _vertex_maps(g, _tripod_wanted, "xapbqcr", domains),
            _reference_induced_maps(_tripod_wanted, "xapbqcr", domains, g.adjacent),
        )


@pytest.mark.parametrize("seed", range(6))
def test_mask_backtracker_matches_the_reference_on_integer_candidates(seed):
    """Random adjacency on candidates 0..n-1, random domains and a pattern
    predicate that leaves some pairs unconstrained."""
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, 9)
        nbrs = [0] * n
        for c, d in combinations(range(n), 2):
            if rng.random() < rng.choice((0.3, 0.5, 0.7)):
                nbrs[c] |= 1 << d
                nbrs[d] |= 1 << c
        order = [f"v{i}" for i in range(rng.randint(1, 5))]
        rng.shuffle(order)
        lists = {v: [c for c in range(n) if rng.random() < 0.7] for v in order}
        masks = {v: sum(1 << c for c in cs) for v, cs in lists.items()}
        table = {
            frozenset(pair): rng.choice((True, False, None))
            for pair in combinations(order, 2)
        }

        def wanted(u, v, table=table):
            return table[frozenset((u, v))]

        _same_maps(
            induced_maps(wanted, order, masks, lambda d, mask: nbrs[d] & mask),
            _reference_induced_maps(
                wanted, order, lists, lambda c, d: bool(nbrs[d] >> c & 1)
            ),
        )


FIG6_TREE = SimplicialGraph(
    ["b", "x", "y", "c", "hx", "hy1", "hy2"],
    [("b", "x"), ("x", "y"), ("y", "c"), ("x", "hx"), ("y", "hy1"), ("y", "hy2")],
)


def test_is_hairy_path():
    assert is_hairy_path(make_tripod(2, 2, 2)) is None
    dec = is_hairy_path(FIG6_TREE)
    assert dec is not None
    assert dec.spine == ("b", "x", "y", "c")
    assert {v: len(hs) for v, hs in dec.hairs.items()} == {"x": 1, "y": 2}
    assert dec.m == 4 and dec.total_hairs == 3
    p7 = make_path(7)
    dec = is_hairy_path(p7)
    assert dec.spine == p7.vertices and not dec.hairs
    # a cycle, the empty graph, and a triangle beside a lone vertex
    # (one edge fewer than vertices, yet not connected)
    triangle = SimplicialGraph(["u", "v", "w", "z"], [("u", "v"), ("v", "w"), ("w", "u")])
    for g in (make_cycle(4), SimplicialGraph([], []), triangle):
        with pytest.raises(ValueError, match="input graph is not a tree"):
            is_hairy_path(g)


def test_tripod_obstruction_on_the_tripod():
    t2 = make_tripod(2, 2, 2)
    roles = find_tripod_obstruction(t2)
    assert roles == {
        "x": "x", "p": "a2", "q": "b2", "r": "c2",
        "a": "a1", "b": "b1", "c": "c1",
    }
    assert obstruction_holds(t2, roles)
    swapped = dict(roles, a=roles["b"], b=roles["a"])
    assert not obstruction_holds(t2, swapped)


def test_tripod_obstruction_absent_on_paths_and_hairy_trees():
    for n in (1, 4, 9, 12):
        assert find_tripod_obstruction(make_path(n)) is None
    assert find_tripod_obstruction(FIG6_TREE) is None
    assert find_tripod_obstruction(make_tripod(1, 1, 1)) is None
    # a longer first leg still contains the forbidden pattern
    assert find_tripod_obstruction(make_tripod(3, 2, 2)) is not None


def _reference_tripod_obstruction(g):
    """The first 7-permutation of the vertices, read as the roles
    (x, a, p, b, q, c, r), that passes ``obstruction_holds``."""
    for tup in permutations(g.vertices, 7):
        roles = dict(zip("xapbqcr", tup))
        if obstruction_holds(g, roles):
            return {role: roles[role] for role in OBSTRUCTION_ROLES}
    return None


def _random_graphs(seed, count):
    """Seeded graphs on 7 or 8 vertices in shuffled order: every second
    one is T(2,2,2) plus up to three random edges (and maybe a vertex),
    so that both answers occur; the others have independent edges."""
    t2 = make_tripod(2, 2, 2)
    rng = random.Random(seed)
    out = []
    for k in range(count):
        labels = list(t2.vertices) + ["y"] * rng.randint(0, 1)
        pairs = list(combinations(labels, 2))
        if k % 2 == 0:
            edges = list(t2.edges) + rng.sample(pairs, rng.randint(0, 3))
        else:
            p = rng.choice((0.25, 0.35, 0.5))
            edges = [e for e in pairs if rng.random() < p]
        rng.shuffle(labels)
        out.append(SimplicialGraph(labels, edges))
    return out


def test_tripod_obstruction_matches_the_brute_force_reference():
    graphs = all_trees(7) + theorem_b_variants() + _random_graphs(3, 16)
    found = 0
    for g in graphs:
        roles = find_tripod_obstruction(g)
        assert roles == _reference_tripod_obstruction(g), g
        if roles is not None:
            assert list(roles) == list(OBSTRUCTION_ROLES)
            found += 1
    # the tripod tree, its three variants and some random graphs have a
    # tuple, and not every graph does
    assert 4 < found < len(graphs)


def test_tripod_obstruction_is_absent_exactly_on_hairy_trees():
    for n in range(1, 11):
        for t in all_trees(n):
            assert (find_tripod_obstruction(t) is None) == (
                is_hairy_path(t) is not None
            ), t


def _brute_force_automorphisms(g):
    """Every automorphism of g other than the identity, as index tuples
    p (vertex i goes to p[i]), by trying every permutation."""
    edges = {frozenset((g.index(u), g.index(v))) for u, v in g.edges}
    found = []
    for p in permutations(range(len(g))):
        if {frozenset((p[i], p[j])) for i, j in edges} == edges:
            found.append(p)
    return found[1:]


def _automorphism_cases():
    graphs = [make_path(n) for n in range(1, 8)] + [make_cycle(n) for n in range(3, 8)]
    graphs += list(shuffled_trees(7, 2))
    return graphs + list(random_graphs(31, 60, max_n=7))


def test_automorphisms_match_the_brute_force():
    for g in _automorphism_cases():
        want = _brute_force_automorphisms(g)
        got = automorphisms(g)
        assert len(set(got)) == len(got) <= len(g), g
        assert tuple(range(len(g))) not in got, g
        assert set(got) <= set(want), g
        # the first ones in lexicographic order, so all of them when few
        assert list(got) == want[: len(g)], g
        if len(want) <= len(g):
            assert set(got) == set(want), g


def test_all_trees_counts():
    assert [len(all_trees(n)) for n in range(1, 10)] == [1, 1, 1, 2, 3, 6, 11, 23, 47]


def test_all_trees_are_trees_and_pairwise_nonisomorphic():
    trees = all_trees(7)
    assert all(is_tree(t) for t in trees)
    for i in range(len(trees)):
        for j in range(i + 1, len(trees)):
            assert not is_isomorphic(trees[i], trees[j])


def test_graph_validation():
    with pytest.raises(ValueError):
        SimplicialGraph(["a", "a"], [])
    with pytest.raises(ValueError):
        SimplicialGraph(["a", "b"], [("a", "a")])
    with pytest.raises(ValueError):
        SimplicialGraph(["a", "b"], [("a", "z")])
    with pytest.raises(ValueError, match=r"edge 'a'-\['b'\] has a label that is not a string"):
        SimplicialGraph(["a", "b"], [("a", ["b"])])
    with pytest.raises(ValueError, match="vertex labels must be nonempty strings"):
        SimplicialGraph([["a"]])
    # labels that the word and extension-vertex syntax cannot write
    with pytest.raises(GraphParseError, match="vertex label 'a b'"):
        parse_graph('{"vertices": ["a b", "c"]}')
    with pytest.raises(GraphParseError, match=r"vertex label 'd\^-1'"):
        parse_graph('{"vertices": ["c", "d^-1"]}')
    with pytest.raises(GraphParseError, match=r"vertex label 'x\^-1'"):
        parse_graph("vertices: x^-1 y\n")


def test_the_constructor_refuses_labels_the_word_syntax_cannot_write():
    # Such a graph would read the token a^-1 as the inverse of a, and its
    # own text would not parse back.
    with pytest.raises(ValueError, match=r"vertex label 'a\^-1' holds whitespace or '\^'"):
        SimplicialGraph(["a", "a^-1", "b c"], [("a", "a^-1")])
    for label in ("b c", " b", "b\t", "b\u00a0c", "\n", "^", "b^2"):
        with pytest.raises(ValueError, match="holds whitespace or '\\^'"):
            SimplicialGraph(["a", label])


def test_every_graph_reads_back_from_its_own_text():
    graphs = list(random_graphs(23, 200)) + [
        SimplicialGraph([]),
        SimplicialGraph(["a", "b-1", "\u00e9", "x_2", "a'"], [("a", "\u00e9"), ("b-1", "a'")]),
    ]
    for g in graphs:
        assert parse_graph(format_graph(g)) == g
        assert parse_graph(json.dumps(graph_to_json(g))) == g


def test_text_format_roundtrip():
    t2 = make_tripod(2, 2, 2)
    again = parse_graph(format_graph(t2))
    assert again == t2


def test_json_format_roundtrip():
    p5 = make_path(5)
    again = parse_graph(json.dumps(graph_to_json(p5)))
    assert again == p5


def test_parse_errors_carry_positions():
    with pytest.raises(GraphParseError) as err:
        parse_graph("vertices: a b\nedge: a\n", name="bad.graph")
    assert "bad.graph:2" in str(err.value)
    with pytest.raises(GraphParseError):
        parse_graph("edge: a b\n")
    with pytest.raises(GraphParseError):
        parse_graph('{"edges": []}')


@pytest.mark.parametrize(
    "text",
    [
        '{"vertices": "xy"}',
        '{"vertices": ["x", "y"], "edges": ["xy"]}',
        '{"vertices": ["x", "y"], "edges": [["x", "y", "x"]]}',
        '{"vertices": ["x", "y"], "edges": "xy"}',
        '{"vertices": ["x", "y"], "edges": [["x", ["y"]]]}',
    ],
    ids=[
        "string-vertices",
        "string-edge",
        "three-label-edge",
        "string-edges",
        "list-label-edge",
    ],
)
def test_json_strings_are_not_read_as_label_lists(text):
    with pytest.raises(GraphParseError):
        parse_graph(text)
