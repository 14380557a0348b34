"""Tracing from outside the library: wrappers around its public calls.

``Tracer.install`` replaces every public function in every loaded
``raagembed`` module namespace (a function imported into another module
with ``from .words import ...`` is bound there too), the methods of
``SimplicialGraph`` and ``GroupMap.apply`` with wrappers, and
``uninstall`` puts the originals back. A wrapper records a span (name,
start, end, parent) in flat arrays; the hottest leaves only count calls,
because a span there would cost more than the call it measures.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

# Leaves called millions of times: counted, not timed.
COUNT_ONLY = {
    "graphs.adjacent",
    "graphs.neighbors",
    "graphs.index",
    "graphs.degree",
    "words.find_cancellation",
    "words.letters_commute",
    "words.letter_key",
    "words.inverse",
}

# Both enumerators are one layer operation: enumerating words.
RENAME = {
    "words.canonical_words": "words.enumerate",
    "words.reduced_words": "words.enumerate",
    "homs.GroupMap.apply": "homs.apply",
}

# Work counters read off a call's arguments and result.
POST = {
    "words.normal_form": ("words.normal_form.letters_in", lambda args, out: len(args[1])),
    "words.reduce": (
        "words.reduce.pairs_cancelled", lambda args, out: (len(args[1]) - len(out)) // 2
    ),
    "homs.apply": ("homs.apply.letters_out", lambda args, out: len(out)),
    "homs.bounded_injectivity": ("homs.words_checked", lambda args, out: out["checked"]),
    "homs.check_surviving": ("homs.words_checked", lambda args, out: out["checked"]),
    "homs.check_support_propagation": (
        "homs.words_checked", lambda args, out: out["checked"]
    ),
    "extgraph.enumerate_vertices": ("extgraph.enumerate.distinct", lambda args, out: len(out)),
}

NO_WAITING = (
    "single-threaded closed loop: no layer waits on another, so no waiting "
    "time is reported"
)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = defaultdict(lambda: [0])
        self.extra = Counter()
        self._patched = []
        self._wrappers = {}

    def reset(self):
        """Drop the spans and counts recorded so far."""
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        for cell in self.counts.values():
            cell[0] = 0
        self.extra.clear()

    # -- wrappers --------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count(self, name, fn):
        cell = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn):
        nid = self._id(name)
        post_key, post = POST.get(name, (None, None))
        extra = self.extra
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if post is not None:
                extra[post_key] += post(args, out)
            return out

        return wrapper

    def _generator(self, name, fn):
        """Spans around each step of a generator, one count per item."""
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        extra = self.extra
        key = name + ".words"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                starts.append(0.0)
                ends.append(0.0)
                stack.append(idx)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    ends[idx] = clock()
                    starts[idx] = t0
                    stack.pop()
                extra[key] += 1
                yield item

        return wrapper

    def _wrap(self, name, fn):
        key = id(fn)
        if key not in self._wrappers:
            name = RENAME.get(name, name)
            if name in COUNT_ONLY:
                w = self._count(name, fn)
            elif inspect.isgeneratorfunction(fn):
                w = self._generator(name, fn)
            else:
                w = self._span(name, fn)
            self._wrappers[key] = (fn, w)
        return self._wrappers[key][1]

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, package):
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(package.__name__ + "."):
                    continue
                layer = obj.__module__.rsplit(".", 1)[1]
                self._patch(mod, attr, self._wrap(f"{layer}.{obj.__name__}", obj))
        graph_cls = package.graphs.SimplicialGraph
        for attr, obj in list(vars(graph_cls).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                self._patch(graph_cls, attr, self._wrap(f"graphs.{attr}", obj))
        apply = package.homs.GroupMap.apply
        self._patch(package.homs.GroupMap, "apply", self._wrap("homs.GroupMap.apply", apply))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading the spans -------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds; and
        direct (parent name, child name) call counts."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        pairs = Counter()
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                pairs[(self.names[self.name[p]], self.names[self.name[i]])] += 1
        calls, total, self_s = Counter(), Counter(), Counter()
        for i in range(n):
            nm = self.names[self.name[i]]
            calls[nm] += 1
            total[nm] += dur[i]
            self_s[nm] += dur[i] - child[i]
        for nm, cell in self.counts.items():
            calls[nm] += cell[0]
        return calls, total, self_s, pairs

    def layer_metrics(self):
        """The per-layer metrics of one traced pass."""
        calls, total, self_s, pairs = self.summary()
        x = self.extra

        def ratio(num, den):
            return num / den if den else 0.0

        adj_calls = calls["extgraph.ext_adjacent"]
        distinct = x["extgraph.enumerate.distinct"]
        return {
            "graphs.adjacent.calls": calls["graphs.adjacent"],
            "graphs.neighbors.calls": calls["graphs.neighbors"],
            "words.normal_form.calls": calls["words.normal_form"],
            "words.normal_form.self_s": self_s["words.normal_form"],
            "words.normal_form.letters_in": x["words.normal_form.letters_in"],
            "words.reduce.calls": calls["words.reduce"],
            "words.reduce.self_s": self_s["words.reduce"],
            "words.reduce.pairs_cancelled": x["words.reduce.pairs_cancelled"],
            "words.find_cancellation.calls": calls["words.find_cancellation"],
            "words.enumerate.words": x["words.enumerate.words"],
            "words.enumerate.self_s": self_s["words.enumerate"],
            "extgraph.ext_vertex.calls": calls["extgraph.ext_vertex"],
            "extgraph.ext_vertex.self_s": self_s["extgraph.ext_vertex"],
            "extgraph.enumerate.s": total["extgraph.enumerate_vertices"],
            "extgraph.enumerate.distinct": distinct,
            "extgraph.enumerate.useful_ratio": ratio(
                distinct, pairs[("extgraph.enumerate_vertices", "extgraph.ext_vertex")]
            ),
            "extgraph.ext_adjacent.calls": adj_calls,
            "extgraph.ext_adjacent.self_s": self_s["extgraph.ext_adjacent"],
            "extgraph.ext_adjacent.reduced_ratio": ratio(
                pairs[("extgraph.ext_adjacent", "words.commute_elements")], adj_calls
            ),
            "extgraph.search.calls": calls["extgraph.search_induced_embedding_ext"],
            "extgraph.search.s": total["extgraph.search_induced_embedding_ext"],
            "extgraph.search.adjacency_evals": pairs[
                ("extgraph.search_induced_embedding_ext", "extgraph.ext_adjacent")
            ],
            "extgraph.push_to_base.s": total["extgraph.push_to_base"],
            "extgraph.induced.s": total["extgraph.induced_ext_subgraph"],
            "homs.apply.calls": calls["homs.apply"],
            "homs.apply.self_s": self_s["homs.apply"],
            "homs.apply.letters_out": x["homs.apply.letters_out"],
            "homs.words_checked": x["homs.words_checked"],
            "homs.bounded_injectivity.s": total["homs.bounded_injectivity"],
            "homs.check_surviving.s": total["homs.check_surviving"],
            "homs.check_support_propagation.s": total["homs.check_support_propagation"],
            "homs.relators.s": total["homs.check_relator_preservation"],
            "constructions.move_deg3.s": total["constructions.move_deg3"],
            "constructions.move_deg1k.s": total["constructions.move_deg1k"],
            "constructions.pipeline.s": total["constructions.build_t2_pipeline"],
            "constructions.hairy_witness.s": total["constructions.hairy_witness"],
            "constructions.claims.s": total["constructions.deg3_claim_reports"],
        }

    def write_spans(self, path):
        """Gzipped, one tab-separated line per span: index, name, parent
        index (-1 for none), start and end in perf_counter seconds."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
