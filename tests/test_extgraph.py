import hashlib
import random
from itertools import combinations, permutations
from typing import NamedTuple

import pytest

from raagembed import extgraph
from raagembed.errors import GraphParseError, InvariantViolation
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
    automorphisms,
    make_cycle,
    make_path,
    make_tripod,
)
from raagembed.words import (
    Letter,
    _alphabet,
    _decode,
    _inverse_ids,
    _reduced_ids,
    canonical_words,
    commutator,
    commute_elements,
    conjugate_word,
    equal,
    format_word,
    inverse,
    normal_form,
    support,
    word,
)
from test_graphs import is_independent, is_isomorphic, random_graphs, shuffled_trees
from test_words import (
    _reference_normal_form,
    _reference_reduce,
    is_reduced,
    letter_key,
    letters_commute,
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
    assert support(P5, v.key) == {"x1", "x2", "x3"}
    assert format_word(v.key) == "x3^-1 x2^-1 x1 x2 x3"
    assert v.radius == 2


def test_unknown_base_rejected():
    with pytest.raises(ValueError):
        ext_vertex(P5, "zz")


def _long_route_vertex_ids(alphabet, v):
    """The ``_record`` triple of v rebuilt from its base and conjugator:
    the word x^-1 a x reduced, then its support and reach read off letter
    by letter."""
    conj = [alphabet.ids[lt] for lt in v.conjugator]
    key = tuple(_inverse_ids(conj) + [alphabet.ids[Letter(v.base, 1)]] + conj)
    support = reach = 0
    for c in _reduced_ids(alphabet.stops, key):
        support |= 3 << (c & ~1)
        reach |= alphabet.stops[c]
    return key, support, reach


def test_generators_match_the_long_route():
    graphs = list(random_graphs(19, 60)) + [P5, make_tripod(2, 2, 2)]
    for g in graphs:
        alphabet = _alphabet(g)
        for b in g.vertices:
            v = ext_vertex(g, b)
            # b b^-1 is not empty, so it takes the route of the normal forms
            long = ext_vertex(g, b, word(b, b + "^-1"))
            assert (v.base, v.conjugator, v.key) == (long.base, long.conjugator, long.key)
            assert (v.base, v.conjugator, v.key) == _reference_ext_vertex(g, b, ())
            assert v._ids == _long_route_vertex_ids(alphabet, v)


def test_unknown_conjugator_letter_rejected():
    with pytest.raises(ValueError):
        ext_vertex(P5, "x1", (Letter("zz", 1),))
    with pytest.raises(ValueError):
        ext_vertex(P5, "x1", word("x2", "zz^-1"))


def test_vertices_off_the_graph_are_rejected():
    # A vertex built on P6 is rebuilt on P5 by ext_vertex, which refuses
    # a base or a conjugator letter that P5 lacks.
    far = ext_vertex(P6, "x6", word("x5"))
    near = ext_vertex(P5, "x1")
    with pytest.raises(ValueError, match="unknown vertex 'x6'"):
        ext_adjacent(P5, far, near)
    with pytest.raises(ValueError, match="unknown vertex 'x6'"):
        induced_ext_subgraph(P5, [far])
    with pytest.raises(ValueError, match="unknown vertex 'x6'"):
        push_to_base(P5, [near, far])
    off = ext_vertex(P6, "x4", word("x5", "x6"))
    assert off.conjugator == word("x5", "x6")
    with pytest.raises(ValueError, match="unknown letter"):
        ext_adjacent(P5, near, off)
    with pytest.raises(ValueError, match="unknown letter"):
        verify_witness(SimplicialGraph(["p"]), P5, {"p": off})


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


def _random_graph(rng, n):
    labels = [f"v{i}" for i in range(n)]
    edges = [(u, v) for u, v in combinations(labels, 2) if rng.random() < 0.5]
    rng.shuffle(labels)
    return SimplicialGraph(labels, edges)


def _reference_ext_vertex(g, base, w):
    """Slow reference for ext_vertex on the Letter route: normal form,
    strip, then the normal forms of the conjugator and of the key, always
    all three."""
    u = list(_reference_normal_form(g, w))
    while True:
        for j, lt in enumerate(u):
            if (lt.base == base or not g.adjacent(lt.base, base)) and all(
                letters_commute(g, u[i], lt) for i in range(j)
            ):
                del u[j]
                break
        else:
            break
    conj = _reference_normal_form(g, tuple(u))
    key = _reference_normal_form(g, inverse(conj) + (Letter(base, 1),) + conj)
    assert len(key) == 2 * len(conj) + 1
    assert is_reduced(g, inverse(conj) + (Letter(base, 1),) + conj)
    return base, conj, key


def _seeded_ext_vertex_inputs():
    """(g, base, w) for ``ext_vertex``: seeded words of length 0 to 8 over
    paths, cycles and random graphs, most of them unreduced or stripped."""
    rng = random.Random(5)
    graphs = [make_path(n) for n in range(5, 9)]
    graphs += [make_cycle(5), make_cycle(6)]
    graphs += [_random_graph(rng, rng.randint(4, 7)) for _ in range(4)]
    for g in graphs:
        letters = [Letter(a, s) for a in g.vertices for s in (1, -1)]
        for _ in range(300):
            base = rng.choice(g.vertices)
            yield g, base, tuple(rng.choice(letters) for _ in range(rng.randint(0, 8)))


def test_ext_vertex_matches_the_reference():
    stripped = 0
    for g, base, w in _seeded_ext_vertex_inputs():
        want = _reference_ext_vertex(g, base, w)
        v = ext_vertex(g, base, w)
        assert (v.base, v.conjugator, v.key) == want, (g, base, w)
        stripped += len(want[1]) < len(normal_form(g, w))
    assert stripped > 500


def _fields(v):
    return v.base, v.conjugator, v.key, v._alphabet, v._ids


def _pool_vertex(g, record):
    """The vertex of a ``_pool`` record, built as the search builds its
    witness vertices."""
    i, x, _ = record
    return ext_vertex(g, g.vertices[i], _decode(_alphabet(g), x))


def _assert_tag_matches_the_full_route(g, v):
    """v was built on g: it carries g's tag, its triple is what the long
    route gives from its word reduced over g, and its key is the normal
    form of the triple's word."""
    alphabet = _alphabet(g)
    assert v._alphabet is alphabet, v
    assert v._ids == _long_route_vertex_ids(alphabet, v), v
    assert v.key == normal_form(g, _decode(alphabet, v._ids[0])), v


def test_tagged_vertex_ids_match_the_full_route_on_any_conjugator():
    # Inputs that strip letters or arrive unreduced: the home path reads
    # the stored conjugator, never w.
    for g, base, w in [
        (P5, "x1", word("x3")),
        (P5, "x1", word("x2", "x5")),
        (P5, "x1", word("x2", "x2^-1")),
        (P5, "x2", word("x1", "x3", "x1^-1", "x5")),
    ]:
        _assert_tag_matches_the_full_route(g, ext_vertex(g, base, w))
    unreduced = stripped = 0
    for g, base, w in _seeded_ext_vertex_inputs():
        v = ext_vertex(g, base, w)
        _assert_tag_matches_the_full_route(g, v)
        unreduced += not is_reduced(g, w)
        stripped += len(v.conjugator) < len(normal_form(g, w))
    assert unreduced > 500 and stripped > 500


def _reference_ext_adjacent(g, u, v):
    """Slow reference for ext_adjacent on the Letter route: distinct keys
    whose commutator the reference reduction does not empty, with no
    support short cut."""
    return u.key != v.key and bool(_reference_reduce(g, commutator(u.key, v.key)))


def _assert_adjacency_matches(g, pairs):
    """ext_adjacent agrees with the reference on every pair; returns how
    many pairs were adjacent."""
    adjacent = 0
    for u, v in pairs:
        want = _reference_ext_adjacent(g, u, v)
        assert ext_adjacent(g, u, v) == want, (g, u, v)
        adjacent += want
    return adjacent


@pytest.mark.parametrize(
    "g,radius", [(P5, 2), (make_cycle(5), 1)], ids=["P5-r2", "C5-r1"]
)
def test_ext_adjacent_matches_the_reference_on_every_pair(g, radius):
    pool = enumerate_vertices(g, radius)
    pairs = [(u, v) for u in pool for v in pool]
    adjacent = _assert_adjacency_matches(g, pairs)
    assert 0 < adjacent < len(pairs)


def _sampled_pairs(rng, g, pool, count):
    """Seeded pairs of four kinds in turn: any two vertices, equal keys
    (the same object or a rebuilt copy), the same base, and a generator
    with any vertex."""
    by_base = {}
    for v in pool:
        by_base.setdefault(v.base, []).append(v)
    generators = [v for v in pool if not v.conjugator]
    pairs = []
    for i in range(count):
        u = rng.choice(pool)
        kind = i % 4
        if kind == 0:
            v = rng.choice(pool)
        elif kind == 1:
            v = u if i % 8 == 1 else ext_vertex(g, u.base, u.conjugator)
        elif kind == 2:
            v = rng.choice(by_base[u.base])
        else:
            u, v = rng.choice(generators), u
        pairs.append((u, v) if rng.random() < 0.5 else (v, u))
    return pairs


def _sampled_adjacency_cases():
    yield "P7-r3", make_path(7), 3
    yield "P10-r2", make_path(10), 2
    yield "C6-r2", make_cycle(6), 2
    rng = random.Random(13)
    for k in range(6):
        yield f"random{k}-r2", _random_graph(rng, rng.randint(4, 7)), 2


@pytest.mark.parametrize(
    "g,radius",
    [pytest.param(g, r, id=name) for name, g, r in _sampled_adjacency_cases()],
)
def test_ext_adjacent_matches_the_reference_on_seeded_pairs(g, radius):
    rng = random.Random(f"{g!r}:{radius}")
    pool = enumerate_vertices(g, radius)
    pairs = _sampled_pairs(rng, g, pool, 20_000)
    adjacent = _assert_adjacency_matches(g, pairs)
    assert 0 < adjacent < len(pairs)


def _counting_reductions(monkeypatch):
    """The calls of the pair routine's reduction, counted in a list."""
    calls = []
    extend = extgraph._extend_reduced_ids

    def counting(stops, out, w):
        calls.append(w)
        return extend(stops, out, w)

    monkeypatch.setattr(extgraph, "_extend_reduced_ids", counting)
    return calls


def test_ext_adjacent_on_a_graph_other_than_the_builder(monkeypatch):
    # A vertex may be asked about in an equal graph with another vertex
    # order, or in another graph on the same labels; the answer must be
    # that graph's. C5 has one more edge than P5, so a key reduced over C5
    # need not be reduced over P5: x1^(x5) is x1 there. An equal graph
    # that is another object rebuilds the vertex too: it is read only on
    # the alphabet object that built it.
    c5 = make_cycle(5)
    for g, other in ((P5, c5), (c5, P5)):
        shuffled = SimplicialGraph(["x3", "x1", "x5", "x2", "x4"], g.edges)
        equal_graph = SimplicialGraph(g.vertices, g.edges)
        sample = enumerate_vertices(g, 2)[::3]
        for u in sample:
            for v in sample:
                want = _reference_ext_adjacent(g, u, v)
                assert ext_adjacent(g, u, v) == want
                assert ext_adjacent(shuffled, u, v) == want
                assert ext_adjacent(equal_graph, u, v) == want
                assert ext_adjacent(g, u, v) == want
                assert ext_adjacent(other, u, v) == _reference_ext_adjacent(other, u, v)
    x1, x1_x5 = ext_vertex(c5, "x1"), ext_vertex(c5, "x1", word("x5"))
    assert ext_adjacent(c5, x1, x1_x5)
    assert not ext_adjacent(P5, x1, x1_x5)
    assert not ext_adjacent(P5, ext_vertex(P5, "x4"), x1_x5)
    # Distinct keys on one base that are one element over P5: rebuilt on
    # P5 they have one key, so the pair is settled with no reduction.
    u, v = ext_vertex(c5, "x1", word("x2")), ext_vertex(c5, "x1", word("x5", "x2"))
    assert u.key != v.key and equal(P5, u.key, v.key)
    assert ext_adjacent(c5, u, v)
    calls = _counting_reductions(monkeypatch)
    assert not ext_adjacent(P5, u, v) and not ext_adjacent(P5, v, u)
    assert calls == []


def test_vertices_of_another_graph_are_read_on_the_asking_graph():
    # x1 and x1^(x5), built on C5, are both x1 over P5.
    c5 = make_cycle(5)
    u, v = ext_vertex(c5, "x1"), ext_vertex(c5, "x1", word("x5"))
    assert not verify_witness(SimplicialGraph(["p", "q"]), P5, {"p": u, "q": v})
    with pytest.raises(ValueError, match="duplicate extension vertices"):
        induced_ext_subgraph(P5, [u, v])
    with pytest.raises(ValueError, match="duplicate extension vertices"):
        push_to_base(P5, [u, v])
    # A vertex is the conjugate of its base by its conjugator; its P5 key,
    # which moves x1^-1 past x5^-1, is another element over C5.
    x = word("x1", "x3", "x4", "x5")
    far = ext_vertex(P5, "x2", x)
    assert not equal(c5, far.key, conjugate_word(Letter("x2", 1), x))
    w, bases = push_to_base(c5, [far])
    assert bases == ["x2"]
    assert equal(c5, w + conjugate_word(Letter("x2", 1), x) + inverse(w), word("x2"))


def test_pairs_on_adjacent_bases_are_settled_without_a_reduction(monkeypatch):
    # Distinct vertices on adjacent or equal bases never commute, so every
    # such pair of P5's radius-2 pool is adjacent, and no reduction runs.
    pool = enumerate_vertices(P5, 2)
    pairs = [(u, v) for u in pool for v in pool if P5.adjacent(u.base, v.base)]
    same = [(u, v) for u in pool for v in pool if u.base == v.base and u != v]
    assert len(pairs) > 1000 and len(same) == 2324
    pairs += same
    want = [_reference_ext_adjacent(P5, u, v) for u, v in pairs]
    assert all(want)
    calls = _counting_reductions(monkeypatch)
    assert [ext_adjacent(P5, u, v) for u, v in pairs] == want
    assert calls == []


def _graph_and_subgraph(labels, edges, removed):
    return SimplicialGraph(labels, edges), SimplicialGraph(
        labels, [e for e in edges if e not in removed]
    )


def test_ext_adjacent_on_a_subgraph_with_unreduced_conjugators():
    # Over h, which lacks the edge x2-x3, the conjugator x2 x3 x2^-1 x4
    # reduced over g is not reduced: u is x1^(x4) there, and conjugating
    # by x4 leaves x1 against a conjugate of x6 supported on x5, x6, x7,
    # off the link x2, x4 of x1.
    labels = [f"x{i}" for i in range(1, 8)]
    edges = [
        ("x1", "x2"), ("x1", "x4"), ("x2", "x3"), ("x2", "x5"),
        ("x4", "x7"), ("x5", "x6"), ("x5", "x7"),
    ]
    g, h = _graph_and_subgraph(labels, edges, [("x2", "x3")])
    u = ext_vertex(g, "x1", word("x2", "x3", "x2^-1", "x4"))
    v = ext_vertex(h, "x6", word("x5", "x7", "x5", "x4"))
    assert len(u.conjugator) == 4 and not is_reduced(h, u.conjugator)
    assert not _reference_ext_adjacent(h, u, v)
    assert not ext_adjacent(h, u, v)
    assert not ext_adjacent(h, v, u)
    # Seeded radius-3 vertices of random graphs, asked about over the
    # graph less a third of its edges, in both orders.
    rng = random.Random(29)
    unreduced = 0
    for _ in range(4):
        big = _random_graph(rng, 6)
        edges = sorted(big.edges)
        removed = rng.sample(edges, len(edges) // 3)
        big, small = _graph_and_subgraph(big.vertices, edges, removed)
        pool = enumerate_vertices(big, 3)
        for _ in range(1500):
            u, v = rng.choice(pool), rng.choice(pool)
            unreduced += not is_reduced(small, u.conjugator)
            want = _reference_ext_adjacent(small, u, v)
            assert ext_adjacent(small, u, v) == want, (big, small, u, v)
            assert ext_adjacent(small, v, u) == want, (big, small, u, v)
    assert unreduced > 100


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
    # identical on labels, not just isomorphic, once u<i> is read as the
    # i-th vertex
    for g in (P5, make_tripod(2, 2, 2)):
        view = induced_ext_subgraph(g, [ext_vertex(g, a) for a in g.vertices])
        assert [format_ext_vertex(v) for v in view.vertices] == list(g.vertices)
        u = {a: f"u{i}" for i, a in enumerate(g.vertices, 1)}
        assert view.graph == SimplicialGraph(
            [u[a] for a in g.vertices], [(u[a], u[b]) for a, b in g.edges]
        )


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


def test_push_to_base_moves_later_items_with_each_step():
    items = [
        ext_vertex(P6, "x1", word("x2", "x1")),
        ext_vertex(P6, "x3", word("x2", "x1")),
        ext_vertex(P6, "x5", word("x6", "x5")),
    ]
    w, bases = push_to_base(P6, items)
    assert format_word(w) == "x2 x1 x6 x5"
    assert bases == ["x1", "x3", "x5"]
    w, bases = push_to_base(P6, [items[1], items[0], items[2]])
    assert format_word(w) == "x2 x1 x6 x5"
    assert bases == ["x3", "x1", "x5"]


def test_push_to_base_rejects_repeated_vertices():
    with pytest.raises(ValueError, match="duplicate"):
        push_to_base(P5, [ext_vertex(P5, "x1"), ext_vertex(P5, "x1")])
    # x3 commutes with x1, so this conjugate is x1 again
    with pytest.raises(ValueError, match="duplicate"):
        push_to_base(
            P5, [ext_vertex(P5, "x1"), ext_vertex(P5, "x4"), ext_vertex(P5, "x1", word("x3"))]
        )


def test_push_to_base_rejects_non_independent_sets():
    # x3's link contains x2, which lies in the conjugate's support
    with pytest.raises(ValueError):
        push_to_base(P5, [ext_vertex(P5, "x1", word("x2")), ext_vertex(P5, "x3")])
    # x4 commutes with that conjugate, so this pair is fine
    w, bases = push_to_base(
        P5, [ext_vertex(P5, "x1", word("x2")), ext_vertex(P5, "x4")]
    )
    assert bases == ["x1", "x4"]
    # (x1, x2) is the first adjacent pair in index order, before (x3, x4)
    items = [ext_vertex(P5, v) for v in ("x1", "x3", "x4", "x2")]
    with pytest.raises(ValueError, match="x1 and x2 do not commute"):
        push_to_base(P5, items)


def test_lex_first_max_independent_set():
    t2 = make_tripod(2, 2, 2)
    assert lex_first_max_independent_set(t2) == ("x", "a2", "b2", "c2")
    assert lex_first_max_independent_set(make_path(4)) == ("x1", "x3")
    assert lex_first_max_independent_set(SimplicialGraph([])) == ()


def _reference_max_independent_set(g):
    """Brute-force reference: the first independent vertex tuple in
    ``combinations`` order, largest size first."""
    vs = g.vertices
    for size in range(len(vs), 0, -1):
        for combo in combinations(vs, size):
            if is_independent(g, combo):
                return combo
    return ()


def test_max_independent_set_matches_the_brute_force():
    graphs = list(shuffled_trees(11, 3)) + list(random_graphs(17, 400))
    for g in graphs:
        assert lex_first_max_independent_set(g) == _reference_max_independent_set(g), g


class _Record(NamedTuple):
    base: str
    conjugator: tuple
    key: tuple


def _reference_enumerate(g, radius):
    """Slow reference for enumerate_vertices: every base conjugated by the
    canonical word of every element of length <= radius, each vertex a
    record of the reference ext_vertex."""
    seen = {}
    for w in canonical_words(g, radius):
        for a in g.vertices:
            v = _Record(*_reference_ext_vertex(g, a, w))
            seen.setdefault(v.key, v)
    return sorted(
        seen.values(),
        key=lambda v: (
            len(v.conjugator),
            g.index(v.base),
            tuple(letter_key(g, lt) for lt in v.conjugator),
        ),
    )


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
    # No letter may start a conjugator; every letter may; a star; and a
    # path whose vertex order is not its order along the path.
    edgeless = SimplicialGraph(["a", "b", "c", "d"])
    k4 = SimplicialGraph("abcd", list(combinations("abcd", 2)))
    shuffled = SimplicialGraph(
        ["x3", "x1", "x5", "x2", "x4"],
        [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5")],
    )
    for name, g in (
        ("edgeless4", edgeless),
        ("K4", k4),
        ("K13", make_tripod(1, 1, 1)),
        ("P5-shuffled", shuffled),
    ):
        for radius in range(4):
            yield f"{name}-r{radius}", g, radius


@pytest.mark.parametrize(
    "g,radius",
    [pytest.param(g, r, id=name) for name, g, r in _enumeration_cases()],
)
def test_enumerate_vertices_matches_the_reference(g, radius):
    got = enumerate_vertices(g, radius)
    want = _reference_enumerate(g, radius)
    assert [(str(v), v.key, v.conjugator) for v in got] == [
        (format_ext_vertex(v), v.key, v.conjugator) for v in want
    ]


@pytest.mark.parametrize(
    "g,radius",
    [pytest.param(g, r, id=name) for name, g, r in _enumeration_cases()],
)
def test_tagged_vertex_ids_match_the_full_route(g, radius):
    for v in enumerate_vertices(g, radius):
        _assert_tag_matches_the_full_route(g, v)


@pytest.mark.parametrize(
    "g,radius",
    [pytest.param(g, r, id=name) for name, g, r in _enumeration_cases()],
)
def test_pool_records_match_the_vertex_route(g, radius):
    alphabet = _alphabet(g)
    for record in extgraph._pool(g, radius):
        i, x, triple = record
        v = _pool_vertex(g, record)
        # ext_vertex keeps the record's conjugator, and its key is the
        # normal form of the record's word x^-1 a x.
        assert (v.base, v.conjugator) == (g.vertices[i], _decode(alphabet, x)), v
        assert v.key == normal_form(g, _decode(alphabet, triple[0])), v
        assert triple == _long_route_vertex_ids(alphabet, v), v


@pytest.mark.parametrize(
    "g,radius",
    [pytest.param(g, r, id=name) for name, g, r in _enumeration_cases()],
)
def test_a_vertex_is_its_pool_record(g, radius):
    pool = extgraph._pool(g, radius)
    assert [v._ids for v in enumerate_vertices(g, radius)] == [r[2] for r in pool]
    for record in pool:
        assert _pool_vertex(g, record)._ids == record[2]


def test_a_vertex_field_cannot_be_forged():
    # Assigning x2 as the conjugator of x3 made ext_adjacent answer for
    # x3^(x2), adjacent to x1, while the key still said x3.
    x1, v = ext_vertex(P5, "x1"), ext_vertex(P5, "x3")
    for field, value in [
        ("conjugator", word("x2")),
        ("key", word("x2^-1", "x3", "x2")),
        ("base", "x2"),
        ("radius", 1),
    ]:
        with pytest.raises(AttributeError):
            setattr(v, field, value)
    assert (v.base, v.conjugator, v.key, v.radius) == ("x3", (), word("x3"), 0)
    assert not ext_adjacent(P5, x1, v)


def test_pool_supports_are_intervals_holding_the_base():
    for n in range(3, 9):
        g = make_path(n)
        for record in extgraph._pool(g, 3):
            v = _pool_vertex(g, record)
            got = support(g, v.key)
            where = sorted(g.index(u) for u in got)
            assert where == list(range(where[0], where[-1] + 1)), v
            assert v.base in got, v
            mask = record[2][1]
            assert got == {g.vertices[c >> 1] for c in range(2 * n) if mask >> c & 1}, v


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
    assert {v: format_ext_vertex(e) for v, e in sorted(found.items())} == {
        "b": "x1",
        "c": "x6",
        "hx": "x3",
        "hy1": "x8",
        "hy2": "x10",
        "x": "x2^(x3 x4)",
        "y": "x5^(x6 x7 x8 x9)",
    }


def test_search_returns_none_for_the_tripod_at_small_radius():
    t2 = make_tripod(2, 2, 2)
    assert search_induced_embedding_ext(t2, make_path(6), 2) is None


def _pool_row_cases():
    for n in range(3, 8):
        for radius in range(3):
            yield f"P{n}-r{radius}", make_path(n), radius
    for n in (4, 5, 6):
        yield f"C{n}-r2", make_cycle(n), 2
    yield "T222-r2", make_tripod(2, 2, 2), 2
    rng = random.Random(19)
    for k in range(8):
        yield f"random{k}-r2", _random_graph(rng, rng.randint(4, 6)), 2


@pytest.mark.parametrize(
    "g,radius",
    [pytest.param(g, r, id=name) for name, g, r in _pool_row_cases()],
)
def test_pool_rows_match_the_commutator_on_every_pair(g, radius):
    # The reference reduces the whole commutator of the decoded keys and
    # takes no support or link shortcut. Rows are first asked for a
    # seeded part of the pool, in a seeded order, so that pairs are
    # settled from either side before the full rows are read.
    pool = extgraph._pool(g, radius)
    vertices = [_pool_vertex(g, r) for r in pool]
    keys = [v.key for v in vertices]
    row = extgraph._pool_rows(g, pool)
    everything = (1 << len(pool)) - 1
    rng = random.Random(f"{g!r}:{radius}")
    order = list(range(len(pool)))
    rng.shuffle(order)
    for d in order:
        row(d, rng.getrandbits(len(pool)))
    for d in order:
        got = row(d, everything)
        want = sum(
            1 << c
            for c in range(len(pool))
            if c != d and not commute_elements(g, keys[d], keys[c])
        )
        assert got == want, str(vertices[d])


# a spine of four with one hair on each interior vertex
HAIRY_H = SimplicialGraph(
    "abcdef", [("a", "b"), ("b", "c"), ("c", "d"), ("b", "e"), ("c", "f")]
)


@pytest.mark.parametrize(
    "pattern,n,found,least",
    [(HAIRY_H, 8, True, 0), (make_cycle(5), 6, False, 100)],
    ids=["H-into-P8", "C5-into-P6"],
)
def test_search_evaluates_no_pool_pair_twice(monkeypatch, pattern, n, found, least):
    pairs = []
    adjacent_ids = extgraph._adjacent_ids

    def counting(alphabet, iu, iv):
        pairs.append((iu, iv))
        return adjacent_ids(alphabet, iu, iv)

    monkeypatch.setattr(extgraph, "_adjacent_ids", counting)
    g = make_path(n)
    witness = search_induced_embedding_ext(pattern, g, 2)
    assert (witness is not None) == found
    # A found witness is checked last, one evaluation per pattern pair.
    checked = len(pattern) * (len(pattern) - 1) // 2 if found else 0
    searched = pairs[: len(pairs) - checked]
    assert len(searched) > least
    assert len({frozenset((iu[0], iv[0])) for iu, iv in searched}) == len(searched)
    # The masks settle every pair with a generator in it, every pair
    # whose supports neither meet nor neighbour, and every pair on equal
    # or adjacent bases, read off the middle ids of the triples' words.
    links = _alphabet(g).links
    for iu, iv in searched:
        assert len(iu[0]) > 1 and len(iv[0]) > 1
        assert iu[2] & iv[1]
        a, b = iu[0][len(iu[0]) >> 1], iv[0][len(iv[0]) >> 1]
        assert a != b and not links[a] >> b & 1


def test_search_checks_the_witness_it_decodes(monkeypatch):
    # The search builds each witness vertex with ext_vertex from the
    # decoded letters; one that drops the conjugator must be caught.
    build = extgraph.ext_vertex

    def drops_the_conjugator(g, base, w=()):
        return build(g, base)

    monkeypatch.setattr(extgraph, "ext_vertex", drops_the_conjugator)
    with pytest.raises(InvariantViolation, match="decoded witness disagrees"):
        search_induced_embedding_ext(HAIRY_H, make_path(8), 2)


def _witness_text(found):
    return None if found is None else {k: str(v) for k, v in sorted(found.items())}


@pytest.mark.parametrize("n", [5, 6])
def test_a_kept_pool_answers_as_a_fresh_one(n):
    # One graph object serves every search, at radii interleaved so that
    # each radius's kept rows are read again after another radius ran.
    g = make_path(n)
    patterns = [t for k in range(1, 7) for t in all_trees(k)]
    patterns += [make_cycle(4), make_cycle(5)]
    for radius in (2, 0, 1, 2, 1):
        for t in patterns:
            got = search_induced_embedding_ext(t, g, radius)
            want = search_induced_embedding_ext(t, make_path(n), radius)
            assert _witness_text(got) == _witness_text(want), (t, radius)
    assert sorted(g._pools) == [0, 1, 2]


@pytest.mark.parametrize(
    "pattern,n", [(HAIRY_H, 8), (make_cycle(5), 6)], ids=["H-into-P8", "C5-into-P6"]
)
def test_a_repeated_search_builds_no_pool_and_evaluates_only_its_check(
    monkeypatch, pattern, n
):
    g = make_path(n)
    first = search_induced_embedding_ext(pattern, g, 2)
    pools, pairs = [], []
    pool, adjacent_ids = extgraph._pool, extgraph._adjacent_ids

    def counting_pool(g, radius):
        pools.append(radius)
        return pool(g, radius)

    def counting_pairs(alphabet, iu, iv):
        pairs.append((iu, iv))
        return adjacent_ids(alphabet, iu, iv)

    monkeypatch.setattr(extgraph, "_pool", counting_pool)
    monkeypatch.setattr(extgraph, "_adjacent_ids", counting_pairs)
    again = search_induced_embedding_ext(pattern, g, 2)
    assert _witness_text(again) == _witness_text(first)
    assert pools == []
    # The decoded witness is still checked, one evaluation per pattern pair.
    k = len(pattern) if again is not None else 0
    assert len(pairs) == k * (k - 1) // 2


def test_a_failed_search_keeps_no_pool(monkeypatch):
    g = make_path(8)
    for _ in range(2):
        with pytest.raises(ValueError):
            search_induced_embedding_ext(HAIRY_H, g, -1)
    assert g._pools == {}

    def refuses(alphabet, w):
        raise InvariantViolation("refused")

    with monkeypatch.context() as patch:
        patch.setattr(extgraph, "_conjugate_key", refuses)
        with pytest.raises(InvariantViolation, match="refused"):
            search_induced_embedding_ext(HAIRY_H, g, 2)
    assert g._pools == {}
    got = search_induced_embedding_ext(HAIRY_H, g, 2)
    want = search_induced_embedding_ext(HAIRY_H, make_path(8), 2)
    assert want is not None
    assert _witness_text(got) == _witness_text(want)


def _filter_targets():
    targets = [make_path(n) for n in range(3, 10)]
    targets += [make_cycle(5), make_cycle(6), make_cycle(8)]
    # P8 in a shuffled vertex order: its reversal is not i -> n - 1 - i
    vs = list(make_path(8).vertices)
    random.Random(8).shuffle(vs)
    return targets + [SimplicialGraph(vs, make_path(8).edges)]


def _filter_cases():
    """(g, radius, witness) for every tree with <= 7 vertices and C4-C6
    into each ``_filter_targets`` graph at radii 0-2, on fresh target
    objects."""
    patterns = [t for k in range(1, 8) for t in all_trees(k)]
    patterns += [make_cycle(n) for n in (4, 5, 6)]
    for g in _filter_targets():
        for radius in range(3):
            for t in patterns:
                yield g, radius, search_induced_embedding_ext(t, g, radius)


def _filter_searches():
    """The witness texts of the ``_filter_cases`` searches."""
    return [_witness_text(found) for _, _, found in _filter_cases()]


def test_the_automorphism_filter_changes_no_answer(monkeypatch):
    # Any set of target automorphisms gives the same answers: none (no
    # filter), the first one alone, and the kept ones.
    kept = _filter_searches()
    monkeypatch.setattr(extgraph, "automorphisms", lambda g: ())
    unfiltered = _filter_searches()
    monkeypatch.setattr(extgraph, "automorphisms", lambda g: automorphisms(g)[:1])
    one = _filter_searches()
    assert kept == unfiltered == one
    assert len(kept) == 924
    assert sum(w is not None for w in kept) == 255
    # the digest of the answers before the filter existed
    digest = hashlib.sha256(b"".join(repr(w).encode() for w in kept)).hexdigest()
    assert digest.startswith("54b700b6860e02d0")


def test_search_witnesses_are_built_by_ext_vertex():
    # Each witness vertex carries the tag of the target's alphabet, is the
    # vertex that ext_vertex builds on its base and conjugator, and keeps
    # its pool record's triple, which is the long route's.
    checked = 0
    for g, radius, witness in _filter_cases():
        if witness is None:
            continue
        alphabet = _alphabet(g)
        triples = {(i, x): triple for i, x, triple in g._pools[radius][0]}
        for v in witness.values():
            assert v._alphabet is alphabet
            assert _fields(v) == _fields(ext_vertex(g, v.base, v.conjugator))
            x = tuple(alphabet.ids[lt] for lt in v.conjugator)
            triple = triples[g.index(v.base), x]
            assert v._ids == triple == _long_route_vertex_ids(alphabet, v), v
            checked += 1
    assert checked == 1000


def test_search_with_an_empty_pattern_returns_the_empty_witness():
    empty = SimplicialGraph([])
    for g in (make_path(3), P5, SimplicialGraph([])):
        found = search_induced_embedding_ext(empty, g, 1)
        assert found == {}
        assert verify_witness(empty, g, found)


def test_the_filter_halves_the_tripod_anchor_maps_into_p7(monkeypatch):
    # P7 has one independent 4-set, and its reversal pairs up the 24
    # orderings that the tripod's four anchors can take.
    calls = []
    maps = extgraph.induced_maps

    def counting(*args):
        calls.append(0)
        for found in maps(*args):
            calls[-1] += 1
            yield found

    monkeypatch.setattr(extgraph, "induced_maps", counting)
    t2 = make_tripod(2, 2, 2)
    assert search_induced_embedding_ext(t2, make_path(7), 2) is None
    # the anchor phase is the first call, and no rest domain is ever full
    assert calls == [12]
    calls.clear()
    monkeypatch.setattr(extgraph, "automorphisms", lambda g: ())
    assert search_induced_embedding_ext(t2, make_path(7), 2) is None
    assert calls == [24]


def test_the_automorphisms_of_a_large_star_are_capped():
    # K_{1,12} has 12! automorphisms; the search keeps len(g) of them.
    star = SimplicialGraph(
        ["c", *[f"l{i}" for i in range(1, 13)]], [("c", f"l{i}") for i in range(1, 13)]
    )
    assert len(automorphisms(star)) == len(star) == 13
    p3 = SimplicialGraph(["a", "b", "d"], [("a", "b"), ("b", "d")])
    found = search_induced_embedding_ext(p3, star, 0)
    assert _witness_text(found) == {"a": "l1", "b": "c", "d": "l2"}


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


def test_verify_witness_rejects_bad_witnesses():
    witness = search_induced_embedding_ext(P5, P5, 0)
    assert verify_witness(P5, P5, witness)
    # a missing label and an extra one
    assert not verify_witness(P5, P5, {**witness, "extra": witness["x1"]})
    assert not verify_witness(P5, P5, {v: witness[v] for v in P5.vertices[1:]})
    # two labels on one element: x3 commutes with x1
    same = {**witness, "x3": ext_vertex(P5, "x1", word("x3"))}
    assert not verify_witness(P5, P5, same)
    # x5^(x4) is adjacent to x4 and not to x1 or x2, as x5 is, but it is
    # adjacent to x3 too: one pair is wrong
    one_wrong = {**witness, "x5": ext_vertex(P5, "x5", word("x4"))}
    assert not verify_witness(P5, P5, one_wrong)


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
