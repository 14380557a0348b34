import random
from itertools import combinations, permutations

import pytest

from raagembed.errors import GraphParseError
from raagembed.extgraph import (
    enumerate_vertices,
    ext_adjacent,
    ext_vertex,
    format_ext_vertex,
    induced_ext_subgraph,
    lex_first_max_independent_set,
    parse_ext_vertex,
    push_to_base,
    search_induced_embedding_ext,
    verify_lemma_path,
    verify_witness,
)
from raagembed.graphs import (
    SimplicialGraph,
    all_trees,
    is_isomorphic,
    make_cycle,
    make_path,
    make_tripod,
)
from raagembed.words import (
    Letter,
    canonical_words,
    equal,
    format_word,
    letter_key,
    word,
)

P5 = make_path(5)
P6 = make_path(6)


def test_empty_conjugator_gives_the_generator():
    v = ext_vertex(P5, "x1")
    assert v.key == word("x1")
    assert v.radius == 0


def test_commuting_conjugator_letters_strip_away():
    assert ext_vertex(P5, "x1", word("x3")) == ext_vertex(P5, "x1")
    # a trailing far-away letter contributes nothing either
    assert ext_vertex(P5, "x1", word("x2", "x5")) == ext_vertex(P5, "x1", word("x2"))


def test_nontrivial_conjugate_support():
    v = ext_vertex(P5, "x1", word("x2", "x3"))
    assert v.support == {"x1", "x2", "x3"}
    assert format_word(v.key) == "x3^-1 x2^-1 x1 x2 x3"
    assert v.radius == 2


def test_unknown_base_rejected():
    with pytest.raises(ValueError):
        ext_vertex(P5, "zz")


def test_ext_adjacent_basics():
    u = ext_vertex(P5, "x1", word("x2"))
    assert not ext_adjacent(P5, u, u)
    # base vertices reproduce the graph
    for a in P5.vertices:
        for b in P5.vertices:
            if a != b:
                assert ext_adjacent(
                    P5, ext_vertex(P5, a), ext_vertex(P5, b)
                ) == P5.adjacent(a, b)
    assert ext_adjacent(P5, u, ext_vertex(P5, "x3"))


def test_ext_adjacent_symmetric_on_a_sample():
    pool = enumerate_vertices(P5, 2)[:30]
    for u, v in combinations(pool, 2):
        assert ext_adjacent(P5, u, v) == ext_adjacent(P5, v, u)


def test_enumerate_vertices_radius_zero_and_dedup():
    vs = enumerate_vertices(P5, 0)
    assert [v.key for v in vs] == [(Letter(a, 1),) for a in P5.vertices]
    p3 = make_path(3)
    vs1 = enumerate_vertices(p3, 1)
    assert len(vs1) == 11  # 3 generators + 8 genuinely new conjugates
    assert len({v.key for v in vs1}) == len(vs1)


def test_enumerate_vertices_monotone_and_unit_exponent():
    small = {v.key for v in enumerate_vertices(P5, 1)}
    large = {v.key for v in enumerate_vertices(P5, 2)}
    assert small <= large
    for v in enumerate_vertices(P5, 2):
        sums = {}
        for lt in v.key:
            sums[lt.base] = sums.get(lt.base, 0) + lt.sign
        assert sums[v.base] == 1
        assert all(s == 0 for b, s in sums.items() if b != v.base)


def test_conjugation_equivariance():
    pool = enumerate_vertices(P5, 1)[:12]
    conjs = [(), word("x2"), word("x1", "x2"), word("x3", "x3")]
    for u, v in combinations(pool, 2):
        for gword in conjs:
            ug = ext_vertex(P5, u.base, u.conjugator + gword)
            vg = ext_vertex(P5, v.base, v.conjugator + gword)
            assert ext_adjacent(P5, u, v) == ext_adjacent(P5, ug, vg)


def test_induced_subgraph_on_base_vertices_is_the_graph():
    # identical on labels, not just isomorphic
    view = induced_ext_subgraph(P5, [ext_vertex(P5, a) for a in P5.vertices])
    assert view.graph == P5
    t = make_tripod(2, 2, 2)
    view = induced_ext_subgraph(t, [ext_vertex(t, a) for a in t.vertices])
    assert view.graph == t


def test_induced_subgraph_deg1k_star_pattern():
    # path b2-b-x1-x2-x3-c-c2: the conjugate x1^(x2 x3) meets exactly
    # b, c and the path vertices
    g = SimplicialGraph(
        ["b2", "b", "x1", "x2", "x3", "c", "c2"],
        [("b2", "b"), ("b", "x1"), ("x1", "x2"), ("x2", "x3"), ("x3", "c"), ("c", "c2")],
    )
    star = ext_vertex(g, "x1", word("x2", "x3"))
    expected = {"b", "c", "x1", "x2", "x3"}
    for v in g.vertices:
        assert ext_adjacent(g, star, ext_vertex(g, v)) == (v in expected)


def test_induced_subgraph_figure_tree_in_p10():
    p10 = make_path(10)
    relabel = dict(zip(p10.vertices, ["b", "x1", "x2", "x3", "y1", "y2", "y3", "y4", "y5", "c"]))
    g = SimplicialGraph(
        [relabel[v] for v in p10.vertices],
        [(relabel[u], relabel[v]) for u, v in p10.edges],
    )
    S = [
        ext_vertex(g, "x1", word("x2", "x3")),
        ext_vertex(g, "y1", word("y2", "y3", "y4", "y5")),
        ext_vertex(g, "b"),
        ext_vertex(g, "c"),
        ext_vertex(g, "x2"),
        ext_vertex(g, "y2"),
        ext_vertex(g, "y4"),
    ]
    view = induced_ext_subgraph(g, S)
    tree = SimplicialGraph(
        ["b", "x", "y", "c", "hx", "hy1", "hy2"],
        [("b", "x"), ("x", "y"), ("y", "c"), ("x", "hx"), ("y", "hy1"), ("y", "hy2")],
    )
    assert is_isomorphic(view.graph, tree)


def test_induced_subgraph_rejects_duplicates():
    with pytest.raises(ValueError):
        induced_ext_subgraph(
            P5, [ext_vertex(P5, "x1"), ext_vertex(P5, "x1", word("x3"))]
        )


def test_push_to_base_already_base():
    items = [ext_vertex(P5, "x1"), ext_vertex(P5, "x3")]
    w, bases = push_to_base(P5, items)
    assert w == () and bases == ["x1", "x3"]


def test_push_to_base_example_over_p6():
    items = [ext_vertex(P6, "x1", word("x2")), ext_vertex(P6, "x5")]
    w, bases = push_to_base(P6, items)
    assert format_word(w) == "x2"
    assert bases == ["x1", "x5"]
    for v, b in zip(items, bases):
        lhs = w + v.key + tuple(lt.inverse() for lt in reversed(w))
        assert equal(P6, lhs, word(b))


def test_push_to_base_rejects_non_independent_sets():
    # x3's link contains x2, which lies in the conjugate's support
    with pytest.raises(ValueError):
        push_to_base(P5, [ext_vertex(P5, "x1", word("x2")), ext_vertex(P5, "x3")])
    # x4 commutes with that conjugate, so this pair is fine
    w, bases = push_to_base(
        P5, [ext_vertex(P5, "x1", word("x2")), ext_vertex(P5, "x4")]
    )
    assert bases == ["x1", "x4"]


def test_lex_first_max_independent_set():
    t2 = make_tripod(2, 2, 2)
    assert lex_first_max_independent_set(t2) == ("x", "a2", "b2", "c2")
    assert lex_first_max_independent_set(make_path(4)) == ("x1", "x3")


def _reference_enumerate(g, radius):
    """Slow reference for enumerate_vertices: every base conjugated by the
    canonical word of every element of length <= radius."""
    seen = {}
    for w in canonical_words(g, radius):
        for a in g.vertices:
            v = ext_vertex(g, a, w)
            seen.setdefault(v.key, v)
    return sorted(
        seen.values(),
        key=lambda v: (
            v.radius,
            g.index(v.base),
            tuple(letter_key(g, lt) for lt in v.conjugator),
        ),
    )


def _random_graph(rng, n):
    labels = [f"v{i}" for i in range(n)]
    edges = [(u, v) for u, v in combinations(labels, 2) if rng.random() < 0.5]
    rng.shuffle(labels)
    return SimplicialGraph(labels, edges)


def _enumeration_cases():
    rng = random.Random(11)
    for n in range(1, 8):
        for radius in range(4):
            yield f"P{n}-r{radius}", make_path(n), radius
    for n in range(4, 7):
        for radius in range(3):
            yield f"C{n}-r{radius}", make_cycle(n), radius
    for k in range(6):
        g = _random_graph(rng, rng.randint(3, 6))
        for radius in range(3):
            yield f"random{k}-r{radius}", g, radius


@pytest.mark.parametrize(
    "g,radius",
    [pytest.param(g, r, id=name) for name, g, r in _enumeration_cases()],
)
def test_enumerate_vertices_matches_the_reference(g, radius):
    got = enumerate_vertices(g, radius)
    want = _reference_enumerate(g, radius)
    assert [(str(v), v.key, v.conjugator) for v in got] == [
        (str(v), v.key, v.conjugator) for v in want
    ]


def test_search_identity_witness():
    found = search_induced_embedding_ext(P5, P5, 0)
    assert found is not None
    assert {v: format_ext_vertex(e) for v, e in found.items()} == {
        v: v for v in P5.vertices
    }
    assert verify_witness(P5, P5, found)


def test_search_finds_the_hairy_tree_witness():
    tree = SimplicialGraph(
        ["b", "x", "y", "c", "hx", "hy1", "hy2"],
        [("b", "x"), ("x", "y"), ("y", "c"), ("x", "hx"), ("y", "hy1"), ("y", "hy2")],
    )
    found = search_induced_embedding_ext(tree, make_path(10), 4)
    assert found is not None
    assert verify_witness(tree, make_path(10), found)


def test_search_returns_none_for_the_tripod_at_small_radius():
    t2 = make_tripod(2, 2, 2)
    assert search_induced_embedding_ext(t2, make_path(6), 2) is None


def _reference_search(pattern, g, radius):
    """Slow reference for the anchored search: every injective choice of
    base generators for the anchors and of pool vertices for the rest,
    accepted by verify_witness."""
    pool = enumerate_vertices(g, radius)
    anchors = lex_first_max_independent_set(pattern)
    rest = [v for v in pattern.vertices if v not in anchors]
    bases = [ext_vertex(g, b) for b in g.vertices]
    for anchor_images in permutations(bases, len(anchors)):
        others = [v for v in pool if v not in anchor_images]
        for rest_images in permutations(others, len(rest)):
            witness = dict(zip(anchors, anchor_images))
            witness.update(zip(rest, rest_images))
            if verify_witness(pattern, g, witness):
                return witness
    return None


@pytest.mark.parametrize(
    "n,radius", [(n, r) for n in range(3, 6) for r in range(2)]
)
def test_search_agrees_with_the_reference(n, radius):
    g = make_path(n)
    for k in range(1, 6):
        for t in all_trees(k):
            found = search_induced_embedding_ext(t, g, radius)
            want = _reference_search(t, g, radius)
            assert (found is None) == (want is None), t
            assert found is None or verify_witness(t, g, found)


STAR = SimplicialGraph(
    ["v1", "v2", "v3", "v4"], [("v1", "v2"), ("v1", "v3"), ("v1", "v4")]
)


def test_the_star_has_a_radius_one_witness_in_p5():
    witness = {
        "v1": parse_ext_vertex("x2^(x3)", P5),
        "v2": parse_ext_vertex("x1", P5),
        "v3": parse_ext_vertex("x3^(x4)", P5),
        "v4": parse_ext_vertex("x5^(x4)", P5),
    }
    assert verify_witness(STAR, P5, witness)


@pytest.mark.xfail(
    strict=True,
    reason="the radius bound is anchored: conjugating the witness above so "
    "that its anchors are base generators lengthens the other images",
)
def test_search_finds_the_star_witness_at_radius_one():
    assert search_induced_embedding_ext(STAR, P5, 1) is not None


def test_verify_lemma_path_bounds():
    report = verify_lemma_path(5, 0)
    assert report["violations"] == []
    with pytest.raises(ValueError):
        verify_lemma_path(4, 1)


def test_ext_vertex_text_roundtrip():
    v = ext_vertex(P5, "x1", word("x2", "x3"))
    assert format_ext_vertex(v) == "x1^(x2 x3)"
    assert parse_ext_vertex("x1^(x2 x3)", P5) == v
    assert parse_ext_vertex("x1^()", P5) == ext_vertex(P5, "x1")
    assert parse_ext_vertex("x1", P5) == ext_vertex(P5, "x1")
    with pytest.raises(GraphParseError):
        parse_ext_vertex("zz^(x1)", P5)
    with pytest.raises(GraphParseError):
        parse_ext_vertex("x1^x2", P5)
