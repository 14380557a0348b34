import random

import pytest

from raagembed import constructions
from raagembed.constructions import (
    build_t2_pipeline,
    certify_non_embeddability,
    counterexample_check,
    deg3_claim_reports,
    hairy_witness,
    move_deg1k,
    move_deg3,
    t2_graph,
)
from raagembed.errors import InvariantViolation
from raagembed.extgraph import (
    ExtVertex,
    enumerate_vertices,
    ext_vertex,
    format_ext_vertex,
    induced_ext_subgraph,
    parse_ext_vertex,
    search_induced_embedding_ext,
)
from raagembed.graphs import (
    SimplicialGraph,
    all_trees,
    is_hairy_path,
    make_cycle,
    make_path,
    make_tripod,
)
from raagembed.homs import bounded_injectivity, check_relator_preservation
from raagembed.words import _alphabet, word
from test_graphs import is_isomorphic

FIG6_TREE = SimplicialGraph(
    ["b", "x", "y", "c", "hx", "hy1", "hy2"],
    [("b", "x"), ("x", "y"), ("y", "c"), ("x", "hx"), ("y", "hy1"), ("y", "hy2")],
)


def leafy(k):
    vs = ["b2", "b", "x", "c", "c2"] + [f"a{i}" for i in range(1, k + 1)]
    edges = [("b2", "b"), ("b", "x"), ("x", "c"), ("c", "c2")]
    edges += [("x", f"a{i}") for i in range(1, k + 1)]
    return SimplicialGraph(vs, edges)


def test_move_deg1k_small_instance():
    g = leafy(1)
    move = move_deg1k(g, "x")
    assert move.k == 1
    # k leaves and the center go, a path of 2k+1 arrives
    assert len(move.new_graph) == len(g) + move.k
    assert format_ext_vertex(move.ext_witness["x"]) == "x1^(x2 x3)"
    assert format_ext_vertex(move.ext_witness["a1"]) == "x2"
    # the witness reproduces the old adjacency exactly
    view = induced_ext_subgraph(
        move.new_graph, [move.ext_witness[v] for v in g.vertices]
    )
    assert is_isomorphic(view.graph, g)


def test_move_deg1k_rejects_bad_centers():
    g = leafy(1)
    with pytest.raises(ValueError):
        move_deg1k(g, "b")  # no degree-one neighbor
    with pytest.raises(ValueError):
        move_deg1k(make_path(5), "x3")  # degree two
    with pytest.raises(ValueError):
        move_deg1k(g, "zz")


def test_move_deg3_on_the_tripod_matches_the_hexagon_picture():
    move = move_deg3(t2_graph(), "x")
    g2 = move.new_graph
    assert len(g2) == 9
    hexagon = {("a1", "x3"), ("x3", "b1"), ("b1", "x1"), ("x1", "c1"),
               ("c1", "x2"), ("x2", "a1")}
    pendants = {("p1", "a1"), ("b1", "q1"), ("c1", "r1")}
    got = {tuple(sorted(e, key=g2.index)) for e in g2.edges}
    want = {tuple(sorted(e, key=g2.index)) for e in hexagon | pendants}
    assert got == want
    assert move.group_map.images["x"] == word("x1", "x2", "x3")


def test_move_deg3_star_becomes_hexagon():
    move = move_deg3(make_tripod(1, 1, 1), "x")
    assert is_isomorphic(move.new_graph, make_cycle(6))


def test_move_deg3_rejects_wrong_degree():
    with pytest.raises(ValueError):
        move_deg3(make_path(5), "x2")


def test_deg3_claims_clean_at_small_bound():
    move = move_deg3(t2_graph(), "x")
    reports = deg3_claim_reports(move, length=3)
    assert all(not r["violations"] for r in reports["restricted_surviving"].values())
    assert reports["support_propagation"]["violations"] == []
    assert reports["full_surviving"]["violations"] == []
    assert reports["dropped"] == "a"


def test_pipeline_reaches_the_twelve_cycle():
    pipe = build_t2_pipeline(length=3)
    assert [len(s) for s in pipe.stages] == [7, 9, 10, 11, 12]
    assert pipe.ends_in_cycle12
    assert is_isomorphic(pipe.stages[-1], make_cycle(12))
    assert pipe.relators_preserved
    assert pipe.injectivity["violations"] == []
    assert pipe.external["verified_by_this_tool"] is False
    assert "12-cycle" in pipe.external["statement"]
    assert pipe.chain_description()[0] == "tripod T(2,2,2)"
    assert pipe.chain_description()[-1].startswith("[external]")


def test_pipeline_composite_is_relator_preserving_standalone():
    pipe = build_t2_pipeline(length=0)
    assert check_relator_preservation(pipe.composite)
    assert bounded_injectivity(pipe.composite, 3)["violations"] == []


def test_hairy_witness_figure_instance():
    hw = hairy_witness(FIG6_TREE)
    assert hw.n == 10
    assert hw.path.vertices == (
        "b", "x1", "x2", "x3", "y1", "y2", "y3", "y4", "y5", "c",
    )
    got = {v: format_ext_vertex(e) for v, e in hw.assignment.items()}
    assert got == {
        "b": "b",
        "x": "x1^(x2 x3)",
        "y": "y1^(y2 y3 y4 y5)",
        "c": "c",
        "hx": "x2",
        "hy1": "y2",
        "hy2": "y4",
    }


def test_hairy_witness_on_a_bare_path_is_the_identity():
    hw = hairy_witness(make_path(6))
    assert hw.n == 6
    assert all(
        format_ext_vertex(e) == v for v, e in hw.assignment.items()
    )


def test_hairy_witness_on_random_trees():
    rng = random.Random(7)
    trees = [t for n in (6, 7, 8) for t in all_trees(n) if is_hairy_path(t)]
    for t in rng.sample(trees, 5):
        hw = hairy_witness(t)  # verifier runs inside
        dec = hw.decomposition
        assert hw.n == dec.m + 2 * dec.total_hairs


def test_hairy_witness_rejects_the_tripod():
    with pytest.raises(ValueError) as err:
        hairy_witness(make_tripod(2, 2, 2))
    assert "certify_non_embeddability" in str(err.value)


def test_certificates():
    cert = certify_non_embeddability(t2_graph())
    assert cert is not None
    assert cert["roles"]["x"] == "x"
    assert set(cert["roles"]) == {"x", "p", "q", "r", "a", "b", "c"}
    assert len(cert["cases"]) == 6
    assert certify_non_embeddability(make_path(9)) is None
    assert certify_non_embeddability(FIG6_TREE) is None


def test_certificate_checks_its_own_tuple(monkeypatch):
    t2 = t2_graph()
    roles = certify_non_embeddability(t2)["roles"]
    swapped = dict(roles, a=roles["b"], b=roles["a"])
    monkeypatch.setattr(constructions, "find_tripod_obstruction", lambda g: swapped)
    with pytest.raises(InvariantViolation):
        certify_non_embeddability(t2)


def test_counterexample_report():
    report = counterexample_check()
    assert report["main_nontrivial"]
    assert report["main_reduced_length"] == 22
    assert report["x2_bracket_trivial"] and report["x4_bracket_trivial"]
    assert report["no_conjugate_product_decomposition"]


def test_label_collisions_get_primed():
    pipe = build_t2_pipeline(length=0)
    second = pipe.moves[1]
    assert second.kind == "deg1k" and second.vertex == "a1"
    assert second.new_labels == ("x1'", "x2'", "x3'")
    assert format_ext_vertex(second.ext_witness["a1"]) == "x1'^(x2' x3')"


def _assert_built_on(g, vertices):
    """Each vertex carries the tag of g's alphabet and is the vertex that
    ext_vertex builds on g from its base and conjugator."""
    alphabet = _alphabet(g)
    for v in vertices:
        assert v._alphabet is alphabet, v
        rebuilt = ext_vertex(g, v.base, v.conjugator)
        assert (v.base, v.conjugator, v.key, v._a) == (
            rebuilt.base,
            rebuilt.conjugator,
            rebuilt.key,
            rebuilt._a,
        ), v


def test_every_public_builder_tags_its_vertices_on_its_graph():
    p5 = make_path(5)
    _assert_built_on(p5, [ext_vertex(p5, "x2"), ext_vertex(p5, "x1", word("x5", "x2"))])
    _assert_built_on(
        p5, [parse_ext_vertex("x3", p5), parse_ext_vertex("x1^(x2 x3^-1)", p5)]
    )
    _assert_built_on(p5, enumerate_vertices(p5, 2))
    p7 = make_path(7)
    found = search_induced_embedding_ext(make_tripod(1, 1, 2), p7, 2)
    assert any(v.conjugator for v in found.values())
    _assert_built_on(p7, found.values())
    hw = hairy_witness(FIG6_TREE)
    _assert_built_on(hw.path, hw.assignment.values())
    move = move_deg1k(leafy(2), "x")
    _assert_built_on(move.new_graph, move.ext_witness.values())


def test_a_vertex_cannot_be_built_from_three_fields():
    # Three fields that disagree (the key x2 is no conjugate of x1) made a
    # vertex equal to x2 that printed as x1; only ext_vertex builds one.
    with pytest.raises(TypeError):
        ExtVertex("x1", (), word("x2"))
    assert "base" not in ExtVertex.__slots__
