"""The three benchmark workloads and the checks that judge their answers.

A workload is built in two steps, both driven by the seed:

* ``setup(R, seed, size)`` is what a user pays before the first query:
  the graphs (and, for ``words_mixed``, the ``MoveClosure`` reference).
  It is timed as ``setup_s``.
* ``queries(R, state, seed, size)`` generates the query list. Each query
  is one public library call, the kind of call a CLI command makes.

Every query carries an independent check: it compares the answer with a
property known from how the input was built (an equal word built by
commuting swaps and inserted inverse pairs, a conjugate of a known graph,
a tree with a known spine length) or with ``oracle.MoveClosure``, never
with a second answer of the code under test alone. Queries call the
library through module attributes at call time, so the tracer's wrappers
and the tests' stubs take effect.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from typing import Any, Callable


@dataclass(slots=True)
class Query:
    """One timed public call.

    ``call(answers, arg)`` makes the call; ``answers`` holds the answers of
    the earlier queries of the same pass, for calls chained on a result.
    ``check(answer, answers, arg)`` returns True when the answer is right.
    ``render(answer)`` gives the canonical JSON value the digest hashes.
    ``arg`` carries per-query data, so that a sweep of many small queries
    can share one ``call`` and one ``check`` function.
    """

    kind: str
    call: Callable[[list, Any], Any]
    check: Callable[[Any, list, Any], bool]
    render: Callable[[Any], Any]
    arg: Any = None


# ---------------------------------------------------------------------------
# Bench-side graph data: labels and adjacency kept apart from the library,
# so checks never ask the code under test what the input was.


@dataclass
class Spec:
    vertices: list
    edges: list

    def nbrs(self):
        out = {v: set() for v in self.vertices}
        for u, v in self.edges:
            out[u].add(v)
            out[v].add(u)
        return out

    def build(self, R):
        return R.graphs.SimplicialGraph(self.vertices, self.edges)


def _labels(n, stem="x"):
    return [f"{stem}{i}" for i in range(1, n + 1)]


def path_spec(n):
    vs = _labels(n)
    return Spec(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def cycle_spec(n):
    vs = _labels(n)
    return Spec(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def random_spec(rng, n, density):
    vs = _labels(n)
    pairs = list(combinations(vs, 2))
    rng.shuffle(pairs)
    return Spec(vs, pairs[: round(density * len(pairs))])


def shuffled(rng, spec):
    """Same graph, vertex order (hence canonical order) permuted."""
    vs = list(spec.vertices)
    rng.shuffle(vs)
    return Spec(vs, list(spec.edges))


def random_tree(rng, n, stem="v"):
    """Uniform labelled tree on n vertices, decoded from a Pruefer code."""
    vs = _labels(n, stem)
    if n == 1:
        return Spec(vs, [])
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for c in code:
        degree[c] += 1
    edges = []
    for c in code:
        leaf = min(i for i in range(n) if degree[i] == 1)
        edges.append((vs[leaf], vs[c]))
        degree[leaf] -= 1
        degree[c] -= 1
    u, v = [i for i in range(n) if degree[i] == 1]
    edges.append((vs[u], vs[v]))
    return Spec(vs, edges)


def longest_path_vertices(spec):
    """Vertex count of a longest path of a tree (double BFS)."""
    nbrs = spec.nbrs()

    def far(start):
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for u in sorted(nbrs[v]):
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        best = max(dist.values())
        return min(v for v in dist if dist[v] == best), best

    a, _ = far(spec.vertices[0])
    _, d = far(a)
    return d + 1


# ---------------------------------------------------------------------------
# Word helpers, written against plain (base, sign) pairs.


def wtxt(w):
    return " ".join(b if s > 0 else b + "^-1" for b, s in w)


def abel(w):
    """Exponent sum per generator: the abelianization, a group invariant."""
    out = Counter()
    for b, s in w:
        out[b] += s
    return {b: e for b, e in out.items() if e}


def random_word(R, rng, vertices, length):
    Letter = R.words.Letter
    return tuple(Letter(rng.choice(vertices), rng.choice((1, -1))) for _ in range(length))


def equal_partner(R, rng, spec, nbrs, w):
    """A different spelling of the same element: random swaps of adjacent
    commuting letters, then inserted inverse pairs."""
    Letter = R.words.Letter
    out = list(w)
    for _ in range(len(out)):
        if len(out) < 2:
            break
        i = rng.randrange(len(out) - 1)
        a, b = out[i].base, out[i + 1].base
        if a == b or b not in nbrs[a]:
            out[i], out[i + 1] = out[i + 1], out[i]
    for _ in range(len(w) // 6 + 1):
        v = rng.choice(spec.vertices)
        s = rng.choice((1, -1))
        i = rng.randrange(len(out) + 1)
        out[i:i] = [Letter(v, s), Letter(v, -s)]
    return tuple(out)


def flipped(R, rng, w):
    """One letter's sign flipped. In a torsion-free group x != x^-1, so the
    result is never equal to w."""
    i = rng.randrange(len(w))
    return w[:i] + (R.words.Letter(w[i].base, -w[i].sign),) + w[i + 1:]


def conjugate(R, c, lt):
    inv = tuple(R.words.Letter(b, -s) for b, s in reversed(c))
    return inv + (lt,) + c


def _same(value):
    return lambda ans, _answers, _arg: ans == value


# ---------------------------------------------------------------------------
# words_mixed


WORDS_MIXED = {
    "why": "the word problem alone (normal_form, reduce, equal, commute, "
    "support) on sparse and dense graphs with words up to length 48; no "
    "extension graph or homomorphism work",
    # Per-layer metric prefix -> the end-to-end metrics it should move
    # here; "flat" lists the layers absent from this workload, where an
    # optimisation of that layer predicts no change.
    "layers": {
        "graphs.adjacent, graphs.neighbors": "solve_s",
        "words.normal_form, words.reduce, words.find_cancellation": "solve_s, latency_p50_ms",
        "oracle": "setup_s, peak_rss_mb",
        "flat": "extgraph, homs, constructions",
    },
    "sizes": {
        "full": {
            "oracle_len": 5,
            "vertex_counts": [5, 6, 7, 8, 9, 10],
            "densities": {"sparse": 0.3, "dense": 0.7},
            "lengths": [6, 12, 18, 24, 30, 36, 42, 48],
            "words_per_cell": 3,
        },
        "tiny": {
            "oracle_len": 3,
            "vertex_counts": [5, 6],
            "densities": {"sparse": 0.3, "dense": 0.7},
            "lengths": [6, 12],
            "words_per_cell": 1,
        },
    },
}


def words_mixed_setup(R, seed, size):
    rng = random.Random(f"{seed}:words_mixed:graphs")
    specs = []
    for n in size["vertex_counts"]:
        specs.append(shuffled(rng, path_spec(n)))
        specs.append(shuffled(rng, cycle_spec(n)))
        for density in size["densities"].values():
            specs.append(random_spec(rng, n, density))
    oracle_graph = shuffled(rng, path_spec(5)).build(R)
    t0 = time.perf_counter()
    closure = R.oracle.MoveClosure(oracle_graph, size["oracle_len"])
    build_s = time.perf_counter() - t0
    return {
        "oracle_graph": oracle_graph,
        "closure": closure,
        "oracle": {
            "build_s": build_s,
            "states": sum((2 * len(oracle_graph)) ** k for k in range(size["oracle_len"] + 1)),
            "classes": closure.class_count(),
        },
        "graphs": [(spec, spec.build(R)) for spec in specs],
    }


def words_mixed_queries(R, state, seed, size):
    words = R.words
    rng = random.Random(f"{seed}:words_mixed:queries")
    qs = []

    # Every word up to the oracle bound, against the move-closure reference.
    g5 = state["oracle_graph"]
    closure = state["closure"]
    letters = [words.Letter(v, s) for v in g5.vertices for s in (1, -1)]
    shared = {lt: lt for lt in letters}

    def normal_form(_A, arg):
        return words.normal_form(g5, arg[0])

    def canonical(ans, _A, arg):
        return ans == arg[1]

    for k in range(size["oracle_len"] + 1):
        for w in product(letters, repeat=k):
            expect = tuple(shared[lt] for lt in closure.canonical(w))
            qs.append(Query("normal_form", normal_form, canonical, wtxt, (w, expect)))

    for spec, g in state["graphs"]:
        nbrs = spec.nbrs()
        for length in size["lengths"]:
            for _ in range(size["words_per_cell"]):
                qs.extend(_long_word_queries(R, rng, spec, nbrs, g, length, len(qs)))
    return qs


def _long_word_queries(R, rng, spec, nbrs, g, length, base):
    words = R.words
    w = random_word(R, rng, spec.vertices, length)
    w_eq = equal_partner(R, rng, spec, nbrs, w)
    w_ne = flipped(R, rng, w)
    ab = abel(w)
    letters_of_w = {b for b, _ in w}
    nonzero = set(ab)
    a, b = rng.sample(spec.vertices, 2)
    c = random_word(R, rng, spec.vertices, length // 2)
    u = conjugate(R, c, words.Letter(a, 1))
    v = conjugate(R, c, words.Letter(b, rng.choice((1, -1))))
    commute = b not in nbrs[a]

    def nf_ok(ans, _A, _arg):
        return abel(ans) == ab and len(ans) <= len(w) and len(ans) % 2 == len(w) % 2

    def nf_eq_ok(ans, A, _arg):
        return nf_ok(ans, A, None) and ans == A[base]

    def reduce_ok(ans, A, _arg):
        return nf_ok(ans, A, None) and len(ans) == len(A[base])

    def support_ok(ans, _A, _arg):
        return nonzero <= set(ans) <= letters_of_w

    return [
        Query("normal_form", lambda A, _: words.normal_form(g, w), nf_ok, wtxt),
        Query("normal_form", lambda A, _: words.normal_form(g, w_eq), nf_eq_ok, wtxt),
        Query("reduce", lambda A, _: words.reduce(g, w), reduce_ok, wtxt),
        Query("support", lambda A, _: words.support(g, w), support_ok, sorted),
        Query("equal", lambda A, _: words.equal(g, w, w_eq), _same(True), bool),
        Query("equal", lambda A, _: words.equal(g, w, w_ne), _same(False), bool),
        Query("commute_elements", lambda A, _: words.commute_elements(g, u, v),
              _same(commute), bool),
    ]


# ---------------------------------------------------------------------------
# ext_search


EXT_SEARCH = {
    "why": "extension-graph enumeration, adjacency and induced-embedding "
    "search on paths at radius <= 3; words only on short conjugates, no "
    "homomorphisms",
    "layers": {
        "graphs.adjacent, graphs.neighbors": "solve_s",
        "words.normal_form (through ext_vertex)": "solve_s",
        "extgraph": "solve_s, latency_tail_ms",
        "flat": "oracle, homs, constructions",
    },
    "sizes": {
        "full": {
            "enum_paths": [6, 7, 8],
            "enum_radius": 3,
            "pairs_per_path": 150,
            "sets_per_path": 8,
            "hairy_max_vertices": 7,
            "hairy_max_radius": 2,
            "tripod_max_vertices": 8,
            "tripod_targets": [6, 7],
            "tripod_radius": 2,
            "orders_per_pattern": 3,
        },
        "tiny": {
            "enum_paths": [5],
            "enum_radius": 2,
            "pairs_per_path": 5,
            "sets_per_path": 2,
            "hairy_max_vertices": 5,
            "hairy_max_radius": 2,
            "tripod_max_vertices": 7,
            "tripod_targets": [6],
            "tripod_radius": 1,
            "orders_per_pattern": 1,
        },
    },
}


def ext_search_setup(R, seed, size):
    graphs = R.graphs
    hairy = []
    tripods = []
    for n in range(1, max(size["hairy_max_vertices"], size["tripod_max_vertices"]) + 1):
        for t in graphs.all_trees(n):
            if n <= size["hairy_max_vertices"] and graphs.is_hairy_path(t) is not None:
                hw = R.hairy_witness(t)
                radius = max(len(e.conjugator) for e in hw.assignment.values())
                if radius <= size["hairy_max_radius"]:
                    hairy.append((t, hw.path, radius))
            if n <= size["tripod_max_vertices"] and R.certify_non_embeddability(t):
                tripods.append(t)
    return {
        "paths": {n: path_spec(n).build(R) for n in size["enum_paths"]},
        "targets": {n: path_spec(n).build(R) for n in size["tripod_targets"]},
        "hairy": hairy,
        "tripods": tripods,
    }


def _witness_render(found):
    if found is None:
        return None
    return {k: str(v) for k, v in sorted(found.items())}


def ext_search_queries(R, state, seed, size):
    ext = R.extgraph
    rng = random.Random(f"{seed}:ext_search:queries")
    radius = size["enum_radius"]
    qs = []

    def enum_ok(n):
        bases = set(path_spec(n).vertices)

        def ok(ans, _A, _arg):
            keys = [v.key for v in ans]
            radii = [v.radius for v in ans]
            return (
                len(set(keys)) == len(keys)
                and radii == sorted(radii)
                and max(radii) <= radius
                and all(len(v.key) == 2 * v.radius + 1 for v in ans)
                and bases == {v.base for v in ans if v.radius == 0}
            )

        return ok

    for n, g in state["paths"].items():
        qs.append(Query(
            "enumerate_vertices",
            lambda A, _, g=g: ext.enumerate_vertices(g, radius),
            enum_ok(n),
            lambda ans: [str(v) for v in ans],
        ))

    # Conjugation by one word is a graph automorphism of the extension
    # graph, so conjugates of base vertices by a common word keep the
    # base path's adjacency: that is what every answer below is checked
    # against.
    for n, g in state["paths"].items():
        spec = path_spec(n)
        pos = {v: i for i, v in enumerate(spec.vertices)}

        def conj_word():
            return random_word(R, rng, spec.vertices, rng.randint(0, radius))

        # Pairs at distance one (adjacent) or two (commuting), conjugated
        # by a word holding once the vertex x after the first of them, so
        # that both conjugates keep x, their supports interact and every
        # pair reaches the word problem rather than the support short cut:
        # the query population is then one kind, not two.
        for _ in range(size["pairs_per_path"]):
            i = rng.randrange(n - 2)
            step = rng.choice((1, 2))
            a, b = spec.vertices[i], spec.vertices[i + step]
            if rng.random() < 0.5:
                a, b = b, a
            x = spec.vertices[i + 1]
            c = list(random_word(R, rng, [v for v in spec.vertices if v != x], radius - 1))
            c.insert(rng.randrange(len(c) + 1), R.words.Letter(x, 1))
            c = tuple(c)
            u, v = ext.ext_vertex(g, a, c), ext.ext_vertex(g, b, c)
            qs.append(Query(
                "ext_adjacent",
                lambda A, _, u=u, v=v, g=g: ext.ext_adjacent(g, u, v),
                _same(step == 1),
                bool,
            ))
        for _ in range(size["sets_per_path"]):
            chosen = rng.sample(spec.vertices, rng.randint(3, min(6, n)))
            c = conj_word()
            items = [ext.ext_vertex(g, s, c) for s in chosen]
            expect = {
                (i, j)
                for i, j in combinations(range(len(chosen)), 2)
                if abs(pos[chosen[i]] - pos[chosen[j]]) == 1
            }
            qs.append(Query(
                "induced_ext_subgraph",
                lambda A, _, items=items, g=g: ext.induced_ext_subgraph(g, items),
                lambda ans, _A, _, expect=expect: set(ans.edges) == expect,
                lambda ans: sorted(ans.edges),
            ))
        for _ in range(size["sets_per_path"]):
            free = list(spec.vertices)
            rng.shuffle(free)
            independent = []
            for s in free:
                if all(abs(pos[s] - pos[t]) > 1 for t in independent):
                    independent.append(s)
            independent = independent[: rng.randint(2, max(2, len(independent)))]
            c = conj_word()
            items = [ext.ext_vertex(g, s, c) for s in independent]
            qs.append(Query(
                "push_to_base",
                lambda A, _, items=items, g=g: ext.push_to_base(g, items),
                lambda ans, _A, _, want=independent: list(ans[1]) == want,
                lambda ans: [wtxt(ans[0]), list(ans[1])],
            ))

    # Search time depends strongly on the pattern's vertex order (one
    # 7-vertex hairy tree takes from 0.1 s to 1.3 s over orders), so the
    # orders come from the pattern's position in the fixed list, not from
    # the run seed: every seed then times the same searches.
    def permuted(index, j, t):
        vs = list(t.vertices)
        random.Random(f"ext_search:order:{index}:{j}").shuffle(vs)
        return R.graphs.SimplicialGraph(vs, t.edges)

    patterns = list(state["hairy"])
    patterns += [
        (t, target, size["tripod_radius"])
        for t in state["tripods"]
        for target in state["targets"].values()
    ]
    for index, (t, path, rad) in enumerate(patterns):
        # A hairy tree must be found within its witness radius; a tripod
        # tree, which certify_non_embeddability proves embeds nowhere, must
        # come back empty.
        hairy = index < len(state["hairy"])
        for j in range(size["orders_per_pattern"]):
            p = permuted(index, j, t)

            def found_ok(ans, _A, _arg, p=p, path=path, rad=rad):
                return (
                    ans is not None
                    and all(v.radius <= rad for v in ans.values())
                    and ext.verify_witness(p, path, ans)
                )

            qs.append(Query(
                "search_induced_embedding_ext",
                lambda A, _, p=p, path=path, rad=rad: ext.search_induced_embedding_ext(
                    p, path, rad
                ),
                found_ok if hairy else _same(None),
                _witness_render,
            ))
    return qs


# ---------------------------------------------------------------------------
# moves_homs


MOVES_HOMS = {
    "why": "embedding moves and bounded homomorphism checks, where "
    "GroupMap.apply and reduce on long, heavily cancelling images dominate; "
    "no extension-graph search and no oracle",
    "layers": {
        "graphs.adjacent, graphs.neighbors": "solve_s",
        "words.reduce (through is_trivial), words.enumerate": "solve_s",
        "homs": "solve_s",
        "constructions": "latency_tail_ms",
        "flat": "oracle, extgraph.search",
    },
    "sizes": {
        "full": {
            "deg3_trees": 10,
            "deg3_vertices": 7,
            "deg3_length": 4,
            "leafy_graphs": 8,
            "leafy_core": [5, 6],
            "leafy_leaves": [1, 2],
            "leafy_length": 4,
            "hairy_trees": 120,
            "hairy_spines": [3, 4, 5, 6],
            "hairy_hairs": [1, 2, 3],
            "pipeline_length": 5,
            "claims_length": 4,
        },
        "tiny": {
            "deg3_trees": 2,
            "deg3_vertices": 5,
            "deg3_length": 2,
            "leafy_graphs": 2,
            "leafy_core": [5],
            "leafy_leaves": [1],
            "leafy_length": 2,
            "hairy_trees": 3,
            "hairy_spines": [3, 4],
            "hairy_hairs": [1, 2],
            "pipeline_length": 2,
            "claims_length": 2,
        },
    },
}


def _deg3_tree(rng, n):
    while True:
        spec = random_tree(rng, n)
        nbrs = spec.nbrs()
        centres = [v for v in spec.vertices if len(nbrs[v]) == 3]
        if centres:
            return shuffled(rng, spec), rng.choice(centres)


def _leafy_graph(rng, core, k):
    """A tree with a vertex x of degree k+2: k leaves and two non-leaves."""
    while True:
        spec = random_tree(rng, core)
        nbrs = spec.nbrs()
        xs = [
            v for v in spec.vertices
            if len(nbrs[v]) == 2 and all(len(nbrs[u]) >= 2 for u in nbrs[v])
        ]
        if xs:
            x = rng.choice(xs)
            leaves = _labels(k, "h")
            return shuffled(rng, Spec(spec.vertices + leaves,
                                      spec.edges + [(x, h) for h in leaves])), x


def _hairy_tree(rng, m, k):
    """A spine of m vertices with k hairs on randomly chosen interior
    vertices, in a random vertex order."""
    spine = _labels(m, "s")
    hairs = _labels(k, "h")
    edges = [(spine[i], spine[i + 1]) for i in range(m - 1)]
    edges += [(rng.choice(spine[1:-1]), h) for h in hairs]
    return shuffled(rng, Spec(spine + hairs, edges))


def moves_homs_setup(R, seed, size):
    rng = random.Random(f"{seed}:moves_homs:graphs")
    deg3 = [_deg3_tree(rng, size["deg3_vertices"]) for _ in range(size["deg3_trees"])]
    cells = [(c, k) for c in size["leafy_core"] for k in size["leafy_leaves"]]
    leafy = [
        _leafy_graph(rng, *cells[i % len(cells)]) for i in range(size["leafy_graphs"])
    ]
    # Spine length and hair count cycle through fixed cells, so that the
    # seed moves the hairs and the order but not the mix of tree sizes.
    cells = [(m, k) for m in size["hairy_spines"] for k in size["hairy_hairs"]]
    hairy = [_hairy_tree(rng, *cells[i % len(cells)]) for i in range(size["hairy_trees"])]
    return {
        "t2": R.constructions.t2_graph(),
        "deg3": [(spec, spec.build(R), x) for spec, x in deg3],
        "leafy": [(spec, spec.build(R), x) for spec, x in leafy],
        "hairy": [(spec, spec.build(R)) for spec in hairy],
    }


def _report_ok(rep):
    return rep["checked"] > 0 and rep["violations"] == []


def _to_json(result):
    return result.to_json()


def moves_homs_queries(R, state, seed, size):
    C = R.constructions
    homs = R.homs
    qs = []

    for spec, g, x in state["deg3"]:
        n, e = len(spec.vertices), len(spec.edges)
        i = len(qs)
        qs.append(Query(
            "move_deg3",
            lambda A, _, g=g, x=x: C.move_deg3(g, x),
            lambda ans, _A, _, n=n, e=e: len(ans.new_graph) == n + 2
            and len(ans.new_graph.edges) == e + 3,
            _to_json,
        ))
        qs.append(Query(
            "check_relator_preservation",
            lambda A, _, i=i: homs.check_relator_preservation(A[i].group_map),
            _same(True),
            bool,
        ))
        qs.append(Query(
            "bounded_injectivity",
            lambda A, _, i=i: homs.bounded_injectivity(A[i].group_map, size["deg3_length"]),
            lambda ans, _A, _: _report_ok(ans),
            dict,
        ))

    for spec, g, x in state["leafy"]:
        n = len(spec.vertices)
        k = len(spec.nbrs()[x]) - 2
        i = len(qs)
        qs.append(Query(
            "move_deg1k",
            lambda A, _, g=g, x=x: C.move_deg1k(g, x),
            lambda ans, _A, _, n=n, k=k: len(ans.new_graph) == n + k
            and len(ans.new_graph.edges) == n + k - 1,
            _to_json,
        ))
        qs.append(Query(
            "bounded_injectivity",
            lambda A, _, i=i: homs.bounded_injectivity(A[i].group_map, size["leafy_length"]),
            lambda ans, _A, _: _report_ok(ans),
            dict,
        ))

    # A hairy path with spine m and n vertices in all embeds into the path
    # on m + 2(n - m) vertices.
    for spec, t in state["hairy"]:
        expect = 2 * len(spec.vertices) - longest_path_vertices(spec)
        qs.append(Query(
            "hairy_witness",
            lambda A, _, t=t: C.hairy_witness(t),
            lambda ans, _A, _, expect=expect, vs=set(spec.vertices): ans.n == expect
            and set(ans.assignment) == vs,
            _to_json,
        ))

    def pipeline_ok(ans, _A, _arg):
        return (
            ans.ends_in_cycle12
            and ans.relators_preserved
            and _report_ok(ans.injectivity)
            and len(ans.stages[-1]) == 12
        )

    qs.append(Query(
        "build_t2_pipeline",
        lambda A, _: C.build_t2_pipeline(length=size["pipeline_length"]),
        pipeline_ok,
        _to_json,
    ))
    i = len(qs)
    qs.append(Query(
        "move_deg3",
        lambda A, _: C.move_deg3(state["t2"], "x"),
        lambda ans, _A, _: len(ans.new_graph) == 9,
        _to_json,
    ))

    def claims_ok(ans, _A, _arg):
        reports = list(ans["restricted_surviving"].values())
        reports += [ans["support_propagation"], ans["full_surviving"]]
        return bool(reports) and all(_report_ok(r) for r in reports)

    qs.append(Query(
        "deg3_claim_reports",
        lambda A, _: C.deg3_claim_reports(A[i], length=size["claims_length"]),
        claims_ok,
        lambda ans: ans,
    ))
    return qs


WORKLOADS = {
    "words_mixed": (WORDS_MIXED, words_mixed_setup, words_mixed_queries),
    "ext_search": (EXT_SEARCH, ext_search_setup, ext_search_queries),
    "moves_homs": (MOVES_HOMS, moves_homs_setup, moves_homs_queries),
}
