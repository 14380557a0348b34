"""Benchmark of the raagembed library on three seeded, self-checking
workloads.

Run from the repository root:

    python3 bench/run.py --workload words_mixed --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Load model: one process, one client, closed loop. A pass runs every query
of the workload once, each query starting when the previous one returns;
passes repeat until ``--seconds`` have elapsed (at least one pass). No
thread or subprocess runs while a pass is timed.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over several set-ups of importing the package
  (with its CLI) and building the workload's graphs and reference;
* ``solve_s``: the summed query times of one pass, each query's time
  being its median over the passes (steadier than the median pass sum
  when the machine's speed drifts within a run);
* ``latency_p50_ms`` / ``latency_tail_ms``: the same per-query medians'
  median, and the highest of a fixed ladder of percentiles with at least
  ten queries beyond it;
* ``peak_rss_mb``: peak resident memory of this process;
* ``error_rate``: failed checks and exceptions over queries attempted
  (printed with both counts; the result line carries them as
  ``failed`` and ``attempted``).

Every time is reported at reference machine speed: multiplied by the
run's calibration scale (see ``calibration.py``). The record keeps the
unscaled values as ``raw_metrics`` and the scale as ``scale``.

``--trace 1`` spends half the time untraced and half traced, and reports
the per-layer metrics of the traced passes plus ``trace.overhead_ratio``.
The spans of the last traced pass go to ``.bench_out/spans-<workload>.tsv.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (versions, seed, sizes, output digest, failures). The
exit status is 0 when every answer passed its check, 1 when one did not,
2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibration import Calibration  # noqa: E402
from tracing import NO_WAITING, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
CALIBRATE_EVERY_S = 0.05
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class Failure:
    """An exception raised by a query, kept in place of its answer."""

    def __init__(self, exc):
        self.kind = type(exc).__name__
        self.message = str(exc)[:200]


def load_library():
    """Import raagembed from scratch, as a new CLI process does."""
    for name in [n for n in sys.modules if n == "raagembed" or n.startswith("raagembed.")]:
        del sys.modules[name]
    package = importlib.import_module("raagembed")
    importlib.import_module("raagembed.cli")
    importlib.import_module("raagembed.oracle")
    return package


def set_up(setup_fn, seed, size, repeats, calibration):
    """Set the workload up ``repeats`` times; keep the last state.

    Returns the package, the state, each set-up's time and the calibration
    scale measured right after it.
    """
    times, scales = [], []
    R = state = None
    for _ in range(repeats):
        R = state = None
        gc.collect()
        t0 = time.perf_counter()
        R = load_library()
        state = setup_fn(R, seed, size)
        times.append(time.perf_counter() - t0)
        mark = len(calibration.samples)
        for _ in range(5):
            calibration.sample()
        scales.append(calibration.scale(mark))
    return R, state, times, scales


def run_pass(queries, calibration):
    """Run every query once, in order; return the answers, the latencies
    and each query's calibration scale.

    The calibration kernel runs between queries, outside the timed
    intervals, after every CALIBRATE_EVERY_S of query time and three times
    at the end, so each query is scaled by the machine speed of the
    stretch it ran in.
    """
    mark = len(calibration.samples)
    gc.collect()
    clock = time.perf_counter
    answers = []
    latencies = []
    stamps = array("i")
    since = 0.0
    for q in queries:
        t0 = clock()
        try:
            ans = q.call(answers, q.arg)
        except Exception as exc:  # a raised query is a counted failure
            ans = Failure(exc)
        took = clock() - t0
        latencies.append(took)
        answers.append(ans)
        stamps.append(len(calibration.samples))
        since += took
        if since >= CALIBRATE_EVERY_S:
            calibration.sample()
            since = 0.0
    for _ in range(3):
        calibration.sample()
    return answers, latencies, calibration.scales_at(stamps, mark)


def judge(queries, answers):
    """Check every answer and render it canonically for the digest."""
    rendered = []
    failures = []
    for i, (q, ans) in enumerate(zip(queries, answers)):
        if isinstance(ans, Failure):
            ok, value = False, {"error": ans.kind, "message": ans.message}
        else:
            try:
                ok, value = bool(q.check(ans, answers, q.arg)), q.render(ans)
            except Exception as exc:  # a malformed answer fails its check
                ok, value = False, {"error": type(exc).__name__, "message": str(exc)[:200]}
        text = json.dumps(value, sort_keys=True, separators=(",", ":"))
        rendered.append(text)
        if not ok:
            failures.append({"index": i, "kind": q.kind, "answer": text[:300]})
    return rendered, failures


def tail_rank(n):
    """The highest ladder percentile with at least ten of n values beyond
    it, and its nearest-rank index."""
    for p in TAIL_LADDER:
        k = max(0, math.ceil(p / 100 * n) - 1)
        if n - (k + 1) >= 10:
            return p, k
    return 100, n - 1


def git_sha(root):
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = root / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload, seed, seconds, trace, size_name="full", setup_repeats=SETUP_REPEATS):
    """Run one workload; return (record, result line object)."""
    info, setup_fn, queries_fn = WORKLOADS[workload]
    size = info["sizes"][size_name]
    calibration = Calibration()
    R, state, setup_times, setup_scales = set_up(
        setup_fn, seed, size, setup_repeats, calibration
    )
    queries = queries_fn(R, state, seed, size)

    start = time.perf_counter()
    untraced_until = start + (seconds / 2 if trace else seconds)
    deadline = start + seconds
    tracer = Tracer() if trace else None

    plain_times, traced_times, layer_runs, pass_scales = [], [], [], []
    raw_latencies, latencies = [], []
    attempted = 0
    failures = []
    reference = None
    digest = None

    def account(answers):
        nonlocal attempted, reference, digest
        rendered, failed = judge(queries, answers)
        if reference is None:
            reference = rendered
            digest = hashlib.sha256("\n".join(rendered).encode()).hexdigest()
        else:
            seen = {f["index"] for f in failed}
            failed += [
                {"index": i, "kind": queries[i].kind, "answer": "differs from the first pass"}
                for i, text in enumerate(rendered)
                if text != reference[i] and i not in seen
            ]
        attempted += len(queries)
        failures.extend(failed)

    while not plain_times or time.perf_counter() < untraced_until:
        answers, lat, scales = run_pass(queries, calibration)
        scaled = array("d", (t * k for t, k in zip(lat, scales)))
        pass_scales.append(statistics.median(scales))
        plain_times.append(sum(scaled))
        raw_latencies.append(array("d", lat))
        latencies.append(scaled)
        account(answers)
    while trace and (not traced_times or time.perf_counter() < deadline):
        tracer.reset()
        tracer.install(R)
        try:
            answers, lat, scales = run_pass(queries, calibration)
        finally:
            tracer.uninstall()
        k = statistics.median(scales)
        traced_times.append(sum(t * s for t, s in zip(lat, scales)))
        layer_runs.append({
            name: v * k if unit_of(name) == "s" else v
            for name, v in tracer.layer_metrics().items()
        })
        account(answers)

    record = {
        "workload": workload,
        "why": info["why"],
        "layers": info["layers"],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size_name,
        "sizes": size,
        "queries_per_pass": len(queries),
        "passes": len(plain_times),
        "traced_passes": len(traced_times),
        "digest": digest,
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures[:10],
        "setup_samples_s": setup_times,
        "solve_samples_s": plain_times,
        "traced_solve_samples_s": traced_times,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(ROOT),
        "calibration_samples": len(calibration.samples),
        "setup_scales": setup_scales,
        "pass_scales": pass_scales,
    }

    if trace:
        metrics = {
            name: (statistics.median_low(run[name] for run in layer_runs), unit_of(name))
            for name in layer_runs[0]
        }
        oracle = state.get("oracle", {})
        metrics["oracle.build_s"] = (oracle.get("build_s", 0.0) * setup_scales[-1], "s")
        metrics["oracle.states"] = (oracle.get("states", 0), "count")
        metrics["oracle.classes"] = (oracle.get("classes", 0), "count")
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced_times) / statistics.median(plain_times), "ratio"
        )
        record["waiting"] = NO_WAITING
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload}.tsv.gz"
        tracer.write_spans(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
    else:
        def end_to_end(setup, per_pass):
            per_query = [statistics.median(ts) for ts in zip(*per_pass)]
            return {
                "setup_s": statistics.median(setup),
                "solve_s": sum(per_query),
                "latency_p50_ms": statistics.median(per_query) * 1e3,
                "latency_tail_ms": sorted(per_query)[tail_rank(len(per_query))[1]] * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }

        record["raw_metrics"] = end_to_end(setup_times, raw_latencies)
        scaled_setup = [t * k for t, k in zip(setup_times, setup_scales)]
        metrics = {k: (v, UNITS[k]) for k, v in end_to_end(scaled_setup, latencies).items()}
        record["latency_tail_percentile"] = tail_rank(len(queries))[0]
        record["latency_samples"] = len(queries)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record, result


def unit_of(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def print_summary(workload, record, result):
    for name, m in result["metrics"].items():
        print(f"{workload:12s} {name:40s} {m['value']:.6g} {m['unit']}")
    extra = ""
    if "latency_tail_percentile" in record:
        extra = (
            f"  (tail = p{record['latency_tail_percentile']} of "
            f"{record['latency_samples']} queries)"
        )
    print(
        f"{workload:12s} {'error_rate':40s} {record['error_rate']:.6g} ratio"
        f"  ({record['failed']} failed of {record['attempted']} attempted){extra}"
    )


def run_all(args):
    """Each workload in a fresh process of its own, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} did not finish (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: a seconds-long smoke run of the same code paths",
    )
    args = ap.parse_args(argv)
    if not (SRC / "raagembed" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        repeats = SETUP_REPEATS if args.size == "full" else 1
        record, result = run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size, repeats
        )
        print_summary(args.workload, record, result)
        print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
