"""The full verification suite: every headline statement the package
implements, run at its stated exhaustive bound.

Each criterion returns {"id", "name", "passed", "details"}; ``run_all``
executes a selection in order. Bounds are fixed here, not calibrated.
"""

from __future__ import annotations

import random
import time

from .constructions import (
    build_t2_pipeline,
    certify_non_embeddability,
    counterexample_check,
    deg3_claim_reports,
    hairy_witness,
    move_deg1k,
    move_deg3,
    obstruction_holds,
    t2_graph,
)
from .errors import InvariantViolation
from .extgraph import (
    enumerate_vertices,
    ext_adjacent,
    format_ext_vertex,
    push_to_base,
    search_induced_embedding_ext,
    verify_lemma_path,
    verify_witness,
)
from .graphs import (
    SimplicialGraph,
    all_trees,
    find_induced_embeddings,
    graph_to_json,
    induced,
    is_connected,
    is_hairy_path,
    make_path,
)
from .homs import bounded_injectivity, check_relator_preservation
from .oracle import MoveClosure, all_words
from .words import (
    Letter,
    commute_elements,
    conjugate_word,
    equal,
    inverse,
    normal_form,
    reduce,
    reduced_words,
    support,
)


def criterion_1():
    """Iterated-commutator counterexample over the 5-vertex path."""
    report = counterexample_check()
    return {
        "id": 1,
        "name": "commutator refutation in G(P5)",
        "passed": report["no_conjugate_product_decomposition"],
        "details": report,
    }


def _oracle_sweep(g, max_len):
    closure = MoveClosure(g, max_len)
    checked = 0
    mismatches = []
    for w, c in closure.sweep():
        if normal_form(g, w) != c:
            mismatches.append(("normal form", w))
        elif len(reduce(g, w)) != len(c):
            mismatches.append(("length", w))
        checked += 1
        if len(mismatches) > 5:
            break
    return {
        "words": checked,
        "elements": closure.class_count(),
        "mismatches": mismatches,
    }


def criterion_2():
    """Reduction and normal form against the move-closure oracle.

    The oracle's canonical word is the (length, lex)-least member of the
    shuffle/cancel component, so literal equality of canonicals gives both
    minimal length and identical equality classes.
    """
    p5 = _oracle_sweep(make_path(5), 6)
    p4 = _oracle_sweep(make_path(4), 5)
    passed = not p5["mismatches"] and not p4["mismatches"]
    return {
        "id": 2,
        "name": "word problem vs move-closure oracle (P5 len 6, P4 len 5)",
        "passed": passed,
        "details": {"P5": p5, "P4": p4},
    }


def criterion_3():
    """Single generator commutes with an element iff its link misses the
    element's support; exhaustive over P5 up to word length 5. The two
    routes share no reduction: one reduces the commutator of a and w, the
    other reduces w alone, once per word, and meets its support with the
    link of a."""
    g = make_path(5)
    generators = [(a, (Letter(a, 1),), g.neighbors(a)) for a in g.vertices]
    checked = 0
    disagreements = []
    for w in all_words(g, 5):
        sup = support(g, w)
        for a, x, link in generators:
            if commute_elements(g, x, w) != (not (link & sup)):
                disagreements.append((a, w))
            checked += 1
    return {
        "id": 3,
        "name": "link/support commutation test, exhaustive over G(P5)",
        "passed": not disagreements,
        "details": {"checked": checked, "disagreements": disagreements[:5]},
    }


def criterion_4():
    """Reduced conjugates of a generator: support is the generator plus the
    conjugator's support, and it spans a connected subgraph. P6, |w| <= 4.

    A cancellation pair of w is one of w^-1 b w too, so only reduced
    conjugators w can give a reduced conjugate, and only they are walked."""
    g = make_path(6)
    reduced_conjugates = 0
    violations = []
    for w in reduced_words(g, 4):
        sup_w = None
        for b in g.vertices:
            conj = conjugate_word(Letter(b, 1), w)
            if len(reduce(g, conj)) != len(conj):
                continue
            reduced_conjugates += 1
            if sup_w is None:
                sup_w = support(g, w)
            sup = support(g, conj)
            if sup != frozenset([b]) | sup_w:
                violations.append(("support", b, w))
            elif not is_connected(induced(g, sup)):
                violations.append(("connectivity", b, w))
    return {
        "id": 4,
        "name": "reduced conjugate support identity and connectivity (P6)",
        "passed": not violations,
        "details": {
            "reduced_conjugates": reduced_conjugates,
            "violations": violations[:5],
        },
    }


def _leafy_instance(k):
    vs = ["b2", "b", "x", "c", "c2"] + [f"a{i}" for i in range(1, k + 1)]
    edges = [("b2", "b"), ("b", "x"), ("x", "c"), ("c", "c2")]
    edges += [("x", f"a{i}") for i in range(1, k + 1)]
    return SimplicialGraph(vs, edges)


def criterion_5():
    """Leaf-path move for k = 1..4: the induced extension subgraph on the
    witness set reproduces the old graph exactly, pair by pair."""
    results = {}
    passed = True
    for k in (1, 2, 3, 4):
        g = _leafy_instance(k)
        move = move_deg1k(g, "x")  # verifies internally; re-check explicitly
        ok = verify_witness(g, move.new_graph, move.ext_witness)
        passed = passed and ok
        results[k] = {
            "pairs": len(g) * (len(g) - 1) // 2,
            "witness_center": format_ext_vertex(move.ext_witness["x"]),
            "exact_match": ok,
        }
    return {
        "id": 5,
        "name": "leaf-path move witness, k = 1..4",
        "passed": passed,
        "details": results,
    }


def criterion_6():
    """Hexagon move on the tripod: exact relator preservation, bounded
    injectivity at length 6, and the three supporting claims at length 5."""
    move = move_deg3(t2_graph(), "x")
    relators = check_relator_preservation(move.group_map)
    inj = bounded_injectivity(move.group_map, 6)
    claims = deg3_claim_reports(move, length=5)
    surviving_ok = all(
        not r["violations"] for r in claims["restricted_surviving"].values()
    )
    claim_ok = (
        surviving_ok
        and not claims["support_propagation"]["violations"]
        and not claims["full_surviving"]["violations"]
    )
    passed = relators and not inj["violations"] and claim_ok
    return {
        "id": 6,
        "name": "hexagon move on the tripod: relators, injectivity, claims",
        "passed": passed,
        "details": {
            "relators_preserved": relators,
            "injectivity": {"checked": inj["checked"], "violations": inj["violations"][:3]},
            "claims": {
                "restricted_surviving_checked": {
                    v: r["checked"] for v, r in claims["restricted_surviving"].items()
                },
                "support_propagation_checked": claims["support_propagation"]["checked"],
                "full_surviving_checked": claims["full_surviving"]["checked"],
                "all_clean": claim_ok,
            },
        },
    }


def criterion_7():
    """Tripod-to-cycle pipeline: composite map verified, final hop cited."""
    pipe = build_t2_pipeline(length=5)
    passed = (
        pipe.ends_in_cycle12
        and pipe.relators_preserved
        and not pipe.injectivity["violations"]
        and pipe.external["verified_by_this_tool"] is False
    )
    return {
        "id": 7,
        "name": "pipeline from the tripod to the 12-cycle, cited hop to P22",
        "passed": passed,
        "details": {
            "chain": pipe.chain_description(),
            "injectivity_checked": pipe.injectivity["checked"],
            "external": pipe.external,
        },
    }


def criterion_8():
    """Middle-vertex commutation over paths n = 5, 6, 7 at radius 3."""
    details = {}
    passed = True
    for n in (5, 6, 7):
        try:
            rep = verify_lemma_path(n, 3)
            details[n] = {k: rep[k] for k in ("triples", "pool", "checks")}
        except InvariantViolation as exc:
            details[n] = {"failed": str(exc)}
            passed = False
    return {
        "id": 8,
        "name": "middle-vertex commutation on paths, exhaustive at radius 3",
        "passed": passed,
        "details": details,
    }


def theorem_b_variants():
    """The three displayed graphs: the tripod of ``t2_graph`` with extra
    edges among the three vertices next to the center."""
    t2 = t2_graph()
    extras = [
        [("b", "c")],
        [("a", "b"), ("b", "c")],
        [("a", "b"), ("b", "c"), ("c", "a")],
    ]
    return [SimplicialGraph(t2.vertices, [*t2.edges, *extra]) for extra in extras]


def criterion_9():
    """Non-embeddability: certificates for the tripod and its three
    variants, and searches that find no anchored witness for the tripod
    within radius 4 in the extension graphs of the paths with n = 5..8
    (see ``search_induced_embedding_ext`` for what anchored means)."""
    radius = 4
    t2 = t2_graph()
    graphs = [("tripod", t2)] + [
        (f"variant {i}", g) for i, g in enumerate(theorem_b_variants(), start=1)
    ]
    cert_ok = True
    cert_details = {}
    for name, g in graphs:
        cert = certify_non_embeddability(g)
        ok = cert is not None and obstruction_holds(g, cert["roles"])
        cert_ok = cert_ok and ok
        cert_details[name] = cert["roles"] if cert else None
    searches = {}
    search_ok = True
    for n in (5, 6, 7, 8):
        witness = search_induced_embedding_ext(t2, make_path(n), radius)
        searches[n] = None if witness is None else "witness found"
        search_ok = search_ok and witness is None
    return {
        "id": 9,
        "name": f"obstruction certificates; no anchored witness within radius {radius}",
        "passed": cert_ok and search_ok,
        "details": {
            "certificates": cert_details,
            "searches": searches,
            "radius": radius,
        },
    }


def criterion_10():
    """Characterization over all trees with <= 13 vertices: decomposable as
    spine-plus-hairs iff no induced tripod; every decomposable tree gets a
    verified witness with n = m + 2k; the four-spine example reproduces
    the expected image set in the 10-vertex path exactly."""
    t2 = t2_graph()
    trees_checked = 0
    equivalence_failures = []
    witness_failures = []
    hairy_count = 0
    for n in range(1, 14):
        for t in all_trees(n):
            trees_checked += 1
            dec = is_hairy_path(t)
            tripod_free = next(find_induced_embeddings(t2, t), None) is None
            if (dec is not None) != tripod_free:
                equivalence_failures.append((n, graph_to_json(t)))
                continue
            if dec is None:
                continue
            hairy_count += 1
            hw = hairy_witness(t)  # verifies the induced image internally
            if hw.n != dec.m + 2 * dec.total_hairs:
                witness_failures.append((n, t.vertices))

    example = SimplicialGraph(
        ["b", "x", "y", "c", "hx", "hy1", "hy2"],
        [
            ("b", "x"), ("x", "y"), ("y", "c"),
            ("x", "hx"), ("y", "hy1"), ("y", "hy2"),
        ],
    )
    hw = hairy_witness(example)
    expected = {
        "b": "b",
        "x": "x1^(x2 x3)",
        "y": "y1^(y2 y3 y4 y5)",
        "c": "c",
        "hx": "x2",
        "hy1": "y2",
        "hy2": "y4",
    }
    got = {v: format_ext_vertex(e) for v, e in hw.assignment.items()}
    example_ok = hw.n == 10 and got == expected and hw.path.vertices == (
        "b", "x1", "x2", "x3", "y1", "y2", "y3", "y4", "y5", "c",
    )
    passed = (
        not equivalence_failures and not witness_failures and example_ok
    )
    return {
        "id": 10,
        "name": "hairy-path characterization over all trees up to 13 vertices",
        "passed": passed,
        "details": {
            "trees": trees_checked,
            "hairy": hairy_count,
            "equivalence_failures": equivalence_failures[:3],
            "witness_failures": witness_failures[:3],
            "example_witness": got,
            "example_ok": example_ok,
        },
    }


def criterion_11(seed=0):
    """Fifty seeded random independent sets of bounded extension vertices
    over the 6-vertex path all conjugate into the base generators."""
    g = make_path(6)
    pool = enumerate_vertices(g, 3)
    rng = random.Random(seed)
    trials = 0
    failures = []
    for _ in range(50):
        target = rng.randint(1, 3)
        chosen = []
        for v in rng.sample(pool, len(pool)):
            if all(
                v.key != u.key and not ext_adjacent(g, v, u) for u in chosen
            ):
                chosen.append(v)
                if len(chosen) == target:
                    break
        try:
            w, bases = push_to_base(g, chosen)
        except InvariantViolation as exc:
            failures.append(str(exc))
            continue
        trials += 1
        for v, b in zip(chosen, bases):
            moved = w + v.key + inverse(w)
            if b not in g.vertices or not equal(g, moved, (Letter(b, 1),)):
                failures.append((format_ext_vertex(v), b))
    return {
        "id": 11,
        "name": "independent sets conjugate into the base vertices (seeded)",
        "passed": trials == 50 and not failures,
        "details": {"seed": seed, "trials": trials, "failures": failures[:5]},
    }


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
}


def run_all(ids=None, seed=0, progress=None):
    """Run the selected criteria (all by default) and return their reports."""
    chosen = sorted(CRITERIA) if not ids else sorted(set(ids))
    for cid in chosen:
        if cid not in CRITERIA:
            raise ValueError(f"unknown criterion {cid}")
    reports = []
    for cid in chosen:
        fn = CRITERIA[cid]
        start = time.perf_counter()
        report = fn(seed=seed) if cid == 11 else fn()
        report["ms"] = round((time.perf_counter() - start) * 1000, 1)
        reports.append(report)
        if progress is not None:
            progress(report)
    return reports
