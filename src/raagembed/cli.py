"""Command-line front end: batch verifications and certificate emission.

Exit status: 0 for a completed run (including negative mathematical
answers), 1 for a failed verification, 2 for unusable input.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import acceptance
from .constructions import (
    build_t2_pipeline,
    certify_non_embeddability,
    counterexample_check,
    hairy_witness,
    move_deg1k,
    move_deg3,
)
from .errors import GraphParseError, InvariantViolation
from .extgraph import (
    enumerate_vertices,
    ext_adjacent,
    format_ext_vertex,
    induced_ext_subgraph,
    parse_ext_vertex,
    push_to_base,
    search_induced_embedding_ext,
    verify_lemma_path,
)
from .graphs import complement, format_graph, graph_to_json, is_tree, load_graph
from .words import (
    commute_elements,
    format_word,
    iterated_commutator,
    normal_form,
    parse_word,
    reduce,
    support,
)


def _load(config, path):
    """The graph file at ``path`` in the internal convention; an unreadable
    file is unusable input, and the message of ``open`` names the path."""
    try:
        g = load_graph(path)
    except OSError as exc:
        raise GraphParseError(str(exc)) from None
    return complement(g) if config.convention == "raag" else g


def _split_words(tokens, g, expected=None):
    parts = []
    current = []
    for tok in tokens:
        if tok == ";":
            parts.append(current)
            current = []
        else:
            current.append(tok)
    parts.append(current)
    if expected is not None and len(parts) != expected:
        raise GraphParseError(
            f"expected {expected} ';'-separated words, got {len(parts)}"
        )
    return [parse_word(" ".join(p), g) for p in parts]


def _word_arg(config, g):
    return parse_word(" ".join(config.tokens), g)


def _cmd_reduce(config, g):
    w = _word_arg(config, g)
    r = reduce(g, w)
    print(format_word(r) if r else "(identity)")
    return {"input": format_word(w), "reduced": format_word(r), "length": len(r)}, 0


def _cmd_nf(config, g):
    w = _word_arg(config, g)
    nf = normal_form(g, w)
    print(format_word(nf) if nf else "(identity)")
    return {"input": format_word(w), "normal_form": format_word(nf)}, 0


def _cmd_support(config, g):
    w = _word_arg(config, g)
    sup = sorted(support(g, w), key=g.index)
    print(" ".join(sup) if sup else "(empty)")
    return {"input": format_word(w), "support": sup}, 0


def _cmd_commute(config, g):
    u, w = _split_words(config.tokens, g, expected=2)
    ans = commute_elements(g, u, w)
    print("commute" if ans else "do not commute")
    return {"left": format_word(u), "right": format_word(w), "commute": ans}, 0


def _cmd_comm(config, g):
    args = _split_words(config.tokens, g)
    if len(args) < 2:
        raise GraphParseError("comm: needs at least two ';'-separated words")
    bracket = iterated_commutator(args)
    nf = normal_form(g, bracket)
    trivial = not nf
    print(format_word(nf) if nf else "(identity)")
    return {
        "arguments": [format_word(a) for a in args],
        "reduced": format_word(nf),
        "trivial": trivial,
    }, 0


def _cmd_ext_adjacent(config, g):
    if len(config.tokens) != 2:
        raise GraphParseError("ext-adjacent: needs exactly two vertices")
    u = parse_ext_vertex(config.tokens[0], g)
    v = parse_ext_vertex(config.tokens[1], g)
    ans = ext_adjacent(g, u, v)
    print("adjacent" if ans else "not adjacent")
    return {
        "left": format_ext_vertex(u),
        "right": format_ext_vertex(v),
        "adjacent": ans,
    }, 0


def _cmd_ext_enumerate(config, g):
    vs = enumerate_vertices(g, config.radius)
    print(f"{len(vs)} vertices within radius {config.radius}")
    for v in vs:
        print(" ", format_ext_vertex(v))
    return {
        "radius": config.radius,
        "count": len(vs),
        "vertices": [format_ext_vertex(v) for v in vs],
    }, 0


def _cmd_ext_induced(config, g):
    S = [parse_ext_vertex(t, g) for t in config.tokens]
    if not S:
        raise GraphParseError("ext-induced: needs at least one vertex")
    view = induced_ext_subgraph(g, S)
    texts = [format_ext_vertex(v) for v in view.vertices]
    for i, text in enumerate(texts, 1):
        print(f"# u{i} = {text}")
    print(format_graph(view.graph), end="")
    return {"vertices": texts, "image": graph_to_json(view.graph)}, 0


def _cmd_embed_search(config, g):
    pattern = _load(config, config.pattern)
    witness = search_induced_embedding_ext(pattern, g, config.radius)
    if witness is None:
        print(f"no anchored witness within radius {config.radius}")
        found = None
    else:
        print(f"witness within radius {config.radius}:")
        found = {v: format_ext_vertex(e) for v, e in witness.items()}
        for v in pattern.vertices:
            print(f"  {v} -> {found[v]}")
    return {
        "pattern": config.pattern,
        "graph": config.graph,
        "radius": config.radius,
        "anchored": True,
        "witness": found,
    }, 0


def _cmd_push_to_base(config, g):
    items = [parse_ext_vertex(t, g) for t in config.tokens]
    if not items:
        raise GraphParseError("push-to-base: needs at least one vertex")
    w, bases = push_to_base(g, items)
    print("conjugator:", format_word(w) if w else "(identity)")
    print("images:", " ".join(bases))
    return {
        "input": [format_ext_vertex(v) for v in items],
        "conjugator": format_word(w),
        "images": bases,
    }, 0


def _cmd_move_deg1k(config, g):
    move = move_deg1k(g, config.vertex)
    print(f"replaced {config.vertex} (k={move.k}); new graph:")
    print(format_graph(move.new_graph), end="")
    print("witness:")
    for v in g.vertices:
        print(f"  {v} -> {format_ext_vertex(move.ext_witness[v])}")
    report = move.to_json()
    report["verified"] = True
    return report, 0


def _cmd_move_deg3(config, g):
    move = move_deg3(g, config.vertex)
    print(f"replaced the tripod at {config.vertex}; new graph:")
    print(format_graph(move.new_graph), end="")
    print("generator images:")
    for v, w in move.group_map.images.items():
        print(f"  {v} -> {format_word(w)}")
    report = move.to_json()
    report["relators_preserved"] = True
    return report, 0


def _cmd_pipeline_t2(config):
    pipe = build_t2_pipeline(length=config.length)
    for line in pipe.chain_description():
        print(line)
    inj = pipe.injectivity
    print(
        f"composite: relators preserved; injectivity clean on {inj['checked']} "
        f"elements up to length {inj['bound']}"
    )
    ok = pipe.ends_in_cycle12 and pipe.relators_preserved and not inj["violations"]
    return pipe.to_json(), 0 if ok else 1


def _cmd_hairy(config, g):
    if not is_tree(g):
        raise GraphParseError("hairy: input graph is not a tree")
    try:
        hw = hairy_witness(g)
    except ValueError:
        cert = certify_non_embeddability(g)
        if cert is None:
            raise InvariantViolation(
                "tree is not a hairy path graph, yet no obstruction tuple was found"
            )
        print("not a hairy path graph; induced two-legged tripod found")
        print(json.dumps(cert["roles"]))
        return {"hairy": False, "certificate": cert}, 0
    dec = hw.decomposition
    print(
        f"hairy path graph: spine {' '.join(dec.spine)}, "
        f"{dec.total_hairs} hairs, embeds in the path on {hw.n} vertices"
    )
    for v in g.vertices:
        print(f"  {v} -> {format_ext_vertex(hw.assignment[v])}")
    report = hw.to_json()
    report["hairy"] = True
    return report, 0


def _cmd_obstruct(config, g):
    cert = certify_non_embeddability(g)
    if cert is None:
        print("no obstruction tuple found")
        return {"certificate": None}, 0
    print("obstruction tuple:", json.dumps(cert["roles"]))
    return {"certificate": cert}, 0


def _cmd_verify_lemma_path(config):
    report = verify_lemma_path(config.n, config.radius)
    print(
        f"clean: n={config.n} radius={config.radius}, {report['checks']} checks over "
        f"{report['triples']} triples and {report['pool']} vertices"
    )
    return report, 0


def _cmd_counterexample(config):
    report = counterexample_check()
    print("bracket [x2 x4, x3, x1, x5] is nontrivial:")
    print(" ", report["main_reduced_word"])
    print("single-generator brackets [x2,...] and [x4,...] are trivial")
    return report, 0


def _cmd_verify_all(config):
    def announce(report):
        mark = "PASS" if report["passed"] else "FAIL"
        print(f"{mark}  #{report['id']:<2} {report['name']} ({report['ms']} ms)")

    reports = acceptance.run_all(ids=config.ids, seed=config.seed, progress=announce)
    ok = all(r["passed"] for r in reports)
    print("all criteria passed" if ok else "SOME CRITERIA FAILED")
    return {"criteria": reports, "passed": ok}, 0 if ok else 1


def _nonnegative_int(text):
    """argparse type for the radius and length bounds."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _out_path(text):
    """argparse type for --out: the report is written only after the
    command has run, so a missing directory, or a path that is itself a
    directory, must fail before it."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    directory = os.path.dirname(text) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"no such directory: {directory!r}")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"is a directory: {text!r}")
    return text


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="raagembed",
        description="words, extension graphs and embedding certificates for "
        "groups presented on graph complements (generators commute iff "
        "non-adjacent); outputs stay in that internal convention",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_, graph=True, tokens=None, radius=None):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        if graph:
            p.add_argument("--graph", required=True, help="graph file (text or JSON form)")
            p.add_argument(
                "--convention",
                choices=("raag", "opposite"),
                default="opposite",
                help="input convention; 'raag' complements input graphs at the boundary",
            )
        if tokens:
            p.add_argument("tokens", nargs="*", metavar=tokens)
        if radius is not None:
            p.add_argument(
                "--radius", type=_nonnegative_int, default=radius,
                help=f"conjugator length bound (default {radius})",
            )
        p.add_argument("--out", type=_out_path, help="write a JSON report here")
        return p

    add("reduce", _cmd_reduce, "reduce a word", tokens="LETTER")
    add("nf", _cmd_nf, "canonical normal form of a word", tokens="LETTER")
    add("support", _cmd_support, "support of a word", tokens="LETTER")
    add("commute", _cmd_commute, "do two words commute (separate with ';')", tokens="TOKEN")
    add("comm", _cmd_comm, "left-normed iterated commutator (';'-separated)", tokens="TOKEN")
    add("ext-adjacent", _cmd_ext_adjacent, "adjacency of two extension vertices", tokens="VERTEX")
    add("ext-enumerate", _cmd_ext_enumerate, "list extension vertices within --radius", radius=1)
    add("ext-induced", _cmd_ext_induced, "induced extension subgraph on listed vertices", tokens="VERTEX")
    p = add(
        "embed-search", _cmd_embed_search,
        "search the extension graph for an induced copy of --pattern", radius=2,
    )
    p.add_argument("--pattern", required=True, help="pattern graph file")
    add("push-to-base", _cmd_push_to_base, "conjugate an independent set into the base", tokens="VERTEX")
    p = add("move-deg1k", _cmd_move_deg1k, "leaf-path replacement move")
    p.add_argument("--vertex", required=True, help="replaced vertex")
    p = add("move-deg3", _cmd_move_deg3, "tripod-to-hexagon move")
    p.add_argument("--vertex", required=True, help="replaced vertex")
    p = add(
        "pipeline-t2", _cmd_pipeline_t2,
        "tripod to 12-cycle chain with cited final hop", graph=False,
    )
    p.add_argument(
        "--length", type=_nonnegative_int, default=5,
        help="word length bound of the injectivity check (default 5)",
    )
    add("hairy", _cmd_hairy, "hairy-path decomposition and witness for a tree")
    add("obstruct", _cmd_obstruct, "tripod-style non-embeddability certificate")
    p = add(
        "verify-lemma-path", _cmd_verify_lemma_path,
        "middle-vertex commutation check on a path", graph=False, radius=3,
    )
    p.add_argument("--n", type=int, default=5, help="path length (default 5)")
    add(
        "counterexample", _cmd_counterexample,
        "iterated-commutator refutation over the 5-vertex path", graph=False,
    )
    p = add(
        "verify-all", _cmd_verify_all,
        "run acceptance criteria (optionally a subset of ids)", graph=False,
    )
    p.add_argument("ids", nargs="*", type=int, metavar="ID")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized sampling only")
    return parser


class _Stdout:
    """Standard output while a command runs. Once the reader has closed
    it, later writes are dropped, so the command still finishes and its
    ``--out`` report is still written; ``broken`` records the closing."""

    def __init__(self, stream):
        self.stream = stream
        self.broken = False

    def write(self, text):
        if not self.broken:
            try:
                self.stream.write(text)
            except BrokenPipeError:
                self.broken = True
        return len(text)

    def flush(self):
        if not self.broken:
            try:
                self.stream.flush()
            except BrokenPipeError:
                self.broken = True


def run(argv=None):
    """Parse the arguments, load the command's ``--graph`` if it takes one,
    execute the command and return the process exit status; a usage error
    returns 2 instead of exiting. When the reader closes standard output,
    the command still runs to the end and writes its ``--out`` report, and
    then BrokenPipeError is raised."""
    try:
        config = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    stdout = _Stdout(sys.stdout)
    try:
        with contextlib.redirect_stdout(stdout):
            graphs = (_load(config, config.graph),) if "graph" in config else ()
            report, status = config.handler(config, *graphs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if stdout.broken:
        raise BrokenPipeError("standard output was closed")
    return status


def main(argv=None):
    try:
        status = run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output (as ``| head`` does). Python
        # flushes stdout again at exit; pointing it at devnull keeps that
        # flush from raising a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    main()
