"""Acceptance suite: every verification criterion at its stated bound.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
CLI's ``verify-all``) and asserts the criterion's report."""

import json

import pytest

from raagembed import acceptance
from raagembed.constructions import t2_graph
from raagembed.graphs import _ordered_edges, all_trees
from raagembed.oracle import all_words
from raagembed.words import Letter, commute_elements


def _check(criterion):
    report = criterion()
    mark = "PASS" if report["passed"] else "FAIL"
    print(f"{mark}  #{report['id']:<2} {report['name']}")
    assert report["passed"], report["details"]
    return report


def test_criterion_01_commutator_refutation():
    report = _check(acceptance.criterion_1)
    assert report["details"]["main_reduced_length"] == 22


def test_criterion_02_word_problem_oracle():
    report = _check(acceptance.criterion_2)
    assert report["details"]["P5"]["words"] == 1_111_111
    assert report["details"]["P4"]["words"] == 37_449
    assert report["details"]["P5"]["elements"] == 80_949
    assert report["details"]["P4"]["elements"] == 7_025


def test_criterion_03_link_support_commutation():
    report = _check(acceptance.criterion_3)
    assert report["details"]["checked"] == 5 * 111_111


def test_criterion_03_compares_its_two_routes(monkeypatch):
    """Criterion 3 asks ``commute_elements`` and ``support`` itself: one
    flipped commutation answer is a disagreement, reported as its pair."""
    flipped = ("x3", (Letter("x2", 1), Letter("x4", -1)))

    def commute(g, u, w):
        answer = commute_elements(g, u, w)
        if (u, w) == ((Letter("x3", 1),), flipped[1]):
            return not answer
        return answer

    monkeypatch.setattr(acceptance, "all_words", lambda g, n: all_words(g, 2))
    monkeypatch.setattr(acceptance, "commute_elements", commute)
    report = acceptance.criterion_3()
    assert not report["passed"]
    assert report["details"] == {"checked": 5 * 111, "disagreements": [flipped]}


def test_criterion_04_reduced_conjugate_support():
    report = _check(acceptance.criterion_4)
    assert report["details"]["reduced_conjugates"] == 7446


def test_criterion_05_leaf_path_move():
    report = _check(acceptance.criterion_5)
    assert set(report["details"]) == {1, 2, 3, 4}


def test_criterion_06_hexagon_move():
    report = _check(acceptance.criterion_6)
    assert report["details"]["relators_preserved"]
    assert report["details"]["injectivity"]["checked"] == 317_944
    claims = report["details"]["claims"]
    assert list(claims["restricted_surviving_checked"].values()) == [146_221] * 6
    assert claims["support_propagation_checked"] == 15_506
    assert claims["full_surviving_checked"] == 343_415
    assert claims["all_clean"]


def test_criterion_07_pipeline():
    report = _check(acceptance.criterion_7)
    assert report["details"]["external"]["verified_by_this_tool"] is False


def test_criterion_08_path_commutation_lemma():
    report = _check(acceptance.criterion_8)
    assert set(report["details"]) == {5, 6, 7}


def test_criterion_09_obstruction_and_searches():
    report = _check(acceptance.criterion_9)
    assert set(report["details"]["searches"]) == {5, 6, 7, 8}
    assert all(v is None for v in report["details"]["searches"].values())
    assert report["details"]["radius"] == 4
    assert report["name"].endswith("within radius 4")


def test_criterion_10_tree_characterization():
    report = _check(acceptance.criterion_10)
    assert report["details"]["trees"] == 2288
    assert report["details"]["hairy"] == 1088
    assert report["details"]["example_ok"]


def test_criterion_10_failure_is_a_json_report(monkeypatch):
    """A tree on which the decomposition and the tripod test disagree is
    reported with its edges in their fixed order, and the report stays
    JSON."""
    planted = next(iter(all_trees(4)))
    is_hairy_path = acceptance.is_hairy_path
    monkeypatch.setattr(
        acceptance, "all_trees", lambda n: all_trees(n) if n <= 5 else []
    )
    monkeypatch.setattr(
        acceptance,
        "is_hairy_path",
        lambda t: None if t == planted else is_hairy_path(t),
    )
    report = acceptance.criterion_10()
    assert not report["passed"]
    failures = json.loads(json.dumps(report))["details"]["equivalence_failures"]
    edges = [list(e) for e in _ordered_edges(planted)]
    assert failures == [
        [4, {"vertices": list(planted.vertices), "edges": edges}]
    ]


def test_theorem_b_variants_are_the_tripod_with_extra_edges():
    # Each variant in the canonical edge order of its output: the six
    # tripod edges of t2_graph, with b-c, then a-b, then a-c added.
    got = [_ordered_edges(g) for g in acceptance.theorem_b_variants()]
    assert got == [
        [("p", "a"), ("a", "x"), ("x", "b"), ("x", "c"), ("b", "q"), ("b", "c"),
         ("c", "r")],
        [("p", "a"), ("a", "x"), ("a", "b"), ("x", "b"), ("x", "c"), ("b", "q"),
         ("b", "c"), ("c", "r")],
        [("p", "a"), ("a", "x"), ("a", "b"), ("a", "c"), ("x", "b"), ("x", "c"),
         ("b", "q"), ("b", "c"), ("c", "r")],
    ]
    for g in acceptance.theorem_b_variants():
        assert g.vertices == t2_graph().vertices


def test_criterion_11_push_to_base_sampling():
    report = _check(acceptance.criterion_11)
    assert report["details"]["trials"] == 50


def test_run_all_respects_selection():
    reports = acceptance.run_all(ids=[1, 5])
    assert [r["id"] for r in reports] == [1, 5]
    assert all(r["passed"] for r in reports)
    with pytest.raises(ValueError):
        acceptance.run_all(ids=[99])
    # an unknown id is refused before any criterion runs
    seen = []
    with pytest.raises(ValueError, match="unknown criterion 99"):
        acceptance.run_all(ids=[1, 99], progress=seen.append)
    assert seen == []
