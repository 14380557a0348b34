import json
import subprocess
import sys

import pytest

from raagembed import cli
from raagembed.cli import run
from raagembed.errors import InvariantViolation
from raagembed.extgraph import induced_ext_subgraph, parse_ext_vertex, verify_witness
from raagembed.graphs import (
    complement,
    format_graph,
    load_graph,
    make_path,
    make_tripod,
    parse_graph,
)


@pytest.fixture
def p5_file(tmp_path):
    f = tmp_path / "p5.graph"
    f.write_text(format_graph(make_path(5)))
    return str(f)


@pytest.fixture
def t2_file(tmp_path):
    f = tmp_path / "t2.graph"
    f.write_text(format_graph(make_tripod(2, 2, 2)))
    return str(f)


def test_reduce_command(capsys, p5_file):
    status = run(["reduce", "--graph", p5_file, "x1", "x3", "x1^-1"])
    assert status == 0
    assert capsys.readouterr().out.strip() == "x3"


def test_reduce_identity_output(capsys, p5_file):
    status = run(["reduce", "--graph", p5_file, "x1", "x1^-1"])
    assert status == 0
    assert capsys.readouterr().out.strip() == "(identity)"


def test_nf_and_support(capsys, p5_file):
    assert run(["nf", "--graph", p5_file, "x3", "x1"]) == 0
    assert capsys.readouterr().out.strip() == "x1 x3"
    assert run(["support", "--graph", p5_file, "x2^-1", "x1", "x2"]) == 0
    assert capsys.readouterr().out.strip() == "x1 x2"


def test_commute_and_comm(capsys, p5_file):
    assert run(["commute", "--graph", p5_file, "x2", ";", "x4"]) == 0
    assert capsys.readouterr().out.strip() == "commute"
    assert (
        run(["comm", "--graph", p5_file, "x2", "x4", ";", "x3", ";", "x1", ";", "x5"])
        == 0
    )
    out = capsys.readouterr().out.strip()
    assert out != "(identity)" and len(out.split()) == 22


def test_comm_needs_two_arguments(capsys, p5_file):
    assert run(["comm", "--graph", p5_file, "x1", "x2"]) == 2


def test_ext_commands(capsys, p5_file):
    assert run(["ext-adjacent", "--graph", p5_file, "x1^(x2)", "x3"]) == 0
    assert capsys.readouterr().out.strip() == "adjacent"
    assert run(["ext-enumerate", "--graph", p5_file, "--radius", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("5 vertices within radius 0")
    assert run(["ext-induced", "--graph", p5_file, "x1", "x2", "x1^(x2 x3)"]) == 0
    assert "vertices:" in capsys.readouterr().out


def test_ext_induced_prints_an_image_that_reads_back(tmp_path, capsys, p5_file):
    texts = ["x1^(x2 x3)", "x2", "x1", "x2^(x3 x4)"]
    out_file = tmp_path / "image.json"
    assert run(["ext-induced", "--graph", p5_file, *texts, "--out", str(out_file)]) == 0
    printed = capsys.readouterr().out
    assert printed.splitlines()[:4] == [f"# u{i} = {t}" for i, t in enumerate(texts, 1)]
    report = json.loads(out_file.read_text())
    assert report["vertices"] == texts
    g = load_graph(p5_file)
    view = induced_ext_subgraph(g, [parse_ext_vertex(t, g) for t in texts])
    for image in (parse_graph(printed), parse_graph(json.dumps(report["image"]))):
        assert image.vertices == ("u1", "u2", "u3", "u4")
        edges = {tuple(sorted((image.index(u), image.index(v)))) for u, v in image.edges}
        assert edges == view.edges


def test_embed_search_witness_roundtrip(tmp_path, capsys, p5_file):
    out_file = tmp_path / "witness.json"
    argv = [
        "embed-search",
        "--graph", p5_file,
        "--pattern", p5_file,
        "--radius", "0",
        "--out", str(out_file),
    ]
    assert run(argv) == 0
    capsys.readouterr()
    data = json.loads(out_file.read_text())
    assert data["witness"] is not None
    # reread the emitted witness and verify it again from scratch
    g = load_graph(p5_file)
    witness = {
        v: parse_ext_vertex(s, g) for v, s in data["witness"].items()
    }
    assert verify_witness(load_graph(p5_file), g, witness)


def test_embed_search_reports_no_witness(capsys, t2_file, tmp_path):
    target = tmp_path / "p6.graph"
    target.write_text(format_graph(make_path(6)))
    argv = ["embed-search", "--graph", str(target), "--pattern", t2_file, "--radius", "2"]
    assert run(argv) == 0
    assert "no anchored witness within radius 2" in capsys.readouterr().out


def test_embed_search_with_an_empty_pattern(capsys, p5_file, tmp_path):
    empty = tmp_path / "empty.graph"
    empty.write_text("vertices:\n")
    out_file = tmp_path / "witness.json"
    argv = ["embed-search", "--graph", p5_file, "--pattern", str(empty), "--radius", "1"]
    assert run([*argv, "--out", str(out_file)]) == 0
    assert capsys.readouterr().out == "witness within radius 1:\n"
    assert json.loads(out_file.read_text())["witness"] == {}


def test_push_to_base_and_precondition(capsys, tmp_path):
    p6 = tmp_path / "p6.graph"
    p6.write_text(format_graph(make_path(6)))
    assert run(["push-to-base", "--graph", str(p6), "x1^(x2)", "x5"]) == 0
    out = capsys.readouterr().out
    assert "conjugator: x2" in out and "x1 x5" in out
    # adjacent pair: precondition fails, usage-style exit
    assert run(["push-to-base", "--graph", str(p6), "x1^(x2)", "x3"]) == 2


def test_push_to_base_rejects_a_repeated_vertex(capsys, p5_file):
    assert run(["push-to-base", "--graph", p5_file, "x1", "x1"]) == 2
    assert "duplicate extension vertices" in capsys.readouterr().err


def test_move_commands(capsys, tmp_path, t2_file):
    assert run(["move-deg3", "--graph", t2_file, "--vertex", "x"]) == 0
    out = capsys.readouterr().out
    assert "x -> x1 x2 x3" in out
    t2 = tmp_path / "t2.txt"
    t2.write_text(
        "vertices: p a x b q c r\n"
        "edge: p a\nedge: a x\nedge: x b\nedge: b q\nedge: x c\nedge: c r\n"
    )
    m3 = tmp_path / "m3.json"
    assert run(["move-deg3", "--graph", str(t2), "--vertex", "x", "--out", str(m3)]) == 0
    capsys.readouterr()
    r = json.loads(m3.read_text())
    assert r["k"] == 3 and r["relators_preserved"] is True
    assert r["renaming"] == {v: v + "1" for v in "pabqcr"}
    assert r["generator_images"] == {**{v: v + "1" for v in "pabqcr"}, "x": "x1 x2 x3"}
    leafy = tmp_path / "leafy.graph"
    leafy.write_text(
        "vertices: b2 b x c c2 a1\n"
        "edge: b2 b\nedge: b x\nedge: x c\nedge: c c2\nedge: x a1\n"
    )
    assert run(["move-deg1k", "--graph", str(leafy), "--vertex", "x"]) == 0
    assert "x -> x1^(x2 x3)" in capsys.readouterr().out
    assert run(["move-deg1k", "--graph", str(leafy), "--vertex", "b"]) == 2


def test_pipeline_command(capsys, tmp_path):
    out_file = tmp_path / "pipe.json"
    assert run(["pipeline-t2", "--length", "2", "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "tripod T(2,2,2)" in out
    data = json.loads(out_file.read_text())
    assert data["ends_in_cycle12"] is True
    assert data["external"]["verified_by_this_tool"] is False


def test_pipeline_command_at_length_zero(capsys):
    assert run(["pipeline-t2", "--length", "0"]) == 0
    assert "0 elements up to length 0" in capsys.readouterr().out


def test_out_into_a_missing_directory_exits_2(capsys, tmp_path):
    out_file = tmp_path / "missing" / "x.json"
    assert run(["counterexample", "--out", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no such directory" in captured.err


def test_out_naming_a_directory_exits_2(capsys, tmp_path):
    assert run(["counterexample", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is a directory" in captured.err


def test_hairy_on_the_tripod_emits_a_certificate(capsys, t2_file):
    assert run(["hairy", "--graph", t2_file]) == 0
    out = capsys.readouterr().out
    assert "not a hairy path graph" in out


def test_hairy_without_a_certificate_is_a_verification_failure(
    capsys, monkeypatch, t2_file
):
    """A non-hairy tree always has an obstruction tuple; if none comes
    back, the command says nothing about the tree and exits 1."""
    monkeypatch.setattr(cli, "certify_non_embeddability", lambda g: None)
    assert run(["hairy", "--graph", t2_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no obstruction tuple" in captured.err


def test_hairy_on_a_path(capsys, tmp_path):
    f = tmp_path / "p4.graph"
    f.write_text(format_graph(make_path(4)))
    assert run(["hairy", "--graph", str(f)]) == 0
    assert "hairy path graph" in capsys.readouterr().out


def test_obstruct(capsys, t2_file, p5_file):
    assert run(["obstruct", "--graph", t2_file]) == 0
    assert "obstruction tuple" in capsys.readouterr().out
    assert run(["obstruct", "--graph", p5_file]) == 0
    assert "no obstruction" in capsys.readouterr().out


def test_verify_lemma_path_command(capsys):
    assert run(["verify-lemma-path", "--n", "5", "--radius", "1"]) == 0
    assert "clean" in capsys.readouterr().out


def test_counterexample_command(capsys):
    assert run(["counterexample"]) == 0
    assert "nontrivial" in capsys.readouterr().out


def test_a_verification_failure_exits_1_without_a_report(monkeypatch, capsys, tmp_path):
    def broken(*args):
        raise InvariantViolation("broken on purpose")

    monkeypatch.setattr(cli, "counterexample_check", broken)
    monkeypatch.setattr(cli, "verify_lemma_path", broken)
    for command in ("counterexample", "verify-lemma-path"):
        out_file = tmp_path / f"{command}.json"
        assert run([command, "--out", str(out_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "verification failure: broken on purpose" in captured.err
        assert not out_file.exists()


def test_verify_all_subset(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    assert run(["verify-all", "1", "5", "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "PASS  #1" in out and "PASS  #5" in out
    data = json.loads(out_file.read_text())
    assert data["passed"] is True and len(data["criteria"]) == 2
    # each criterion's wall time, in milliseconds to one decimal, on its line
    for report in data["criteria"]:
        assert report["ms"] == round(report["ms"], 1) and "seconds" not in report
        assert f"#{report['id']:<2} {report['name']} ({report['ms']} ms)" in out
    # an unknown id is refused before criterion 1 runs
    assert run(["verify-all", "1", "99"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown criterion 99" in captured.err


def test_convention_flag_matches_manual_complement(capsys, tmp_path):
    t2 = make_tripod(2, 2, 2)
    plain = tmp_path / "t2.graph"
    plain.write_text(format_graph(t2))
    comp = tmp_path / "t2c.graph"
    comp.write_text(format_graph(complement(t2)))
    # words over the complemented graph behave identically either way
    argv_raag = ["nf", "--graph", str(comp), "--convention", "raag", "b1", "x", "a1"]
    assert run(argv_raag) == 0
    out_raag = capsys.readouterr().out
    argv_opp = ["nf", "--graph", str(plain), "b1", "x", "a1"]
    assert run(argv_opp) == 0
    assert capsys.readouterr().out == out_raag


def test_bad_inputs_exit_2(capsys, tmp_path):
    missing = ["reduce", "--graph", str(tmp_path / "nope.graph"), "x1"]
    assert run(missing) == 2
    bad = tmp_path / "bad.graph"
    bad.write_text("vertices: a b\nedge: a\n")
    assert run(["reduce", "--graph", str(bad), "a"]) == 2
    err = capsys.readouterr().err
    assert "bad.graph:2" in err
    # a JSON string is not a list of labels or a pair of them, a label is
    # a string, one that words cannot write is refused, and so is a file
    # that is not UTF-8
    for text in (
        b'{"vertices": "xy"}',
        b'{"vertices": ["x", "y"], "edges": ["xy"]}',
        b'{"vertices": ["x", "y"], "edges": [["x", ["y"]]]}',
        b'{"vertices": ["a b", "c"]}',
        b'{"vertices": ["c", "d^-1"]}',
        b"vertices: a\xff b\n",
    ):
        bad.write_bytes(text)
        assert run(["ext-enumerate", "--graph", str(bad), "--radius", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "bad.graph" in captured.err
    p5 = tmp_path / "p5.graph"
    p5.write_text(format_graph(make_path(5)))
    assert run(["reduce", "--graph", str(p5), "x9"]) == 2
    capsys.readouterr()
    # a directory is no graph file, as --graph or as --pattern
    for argv in (
        ["ext-enumerate", "--graph", str(tmp_path), "--radius", "0"],
        ["embed-search", "--graph", str(p5), "--pattern", str(tmp_path)],
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"Is a directory: {str(tmp_path)!r}" in captured.err
    assert run(["nf", "x1"]) == 2  # no graph given


@pytest.mark.parametrize(
    "argv",
    [
        # flags the command does not read
        ["counterexample", "--graph", "X"],
        ["counterexample", "--radius", "3"],
        ["pipeline-t2", "--radius", "1"],
        ["verify-all", "1", "--radius", "-1"],
        ["verify-lemma-path", "--length", "2"],
        ["ext-enumerate", "--graph", "X", "--seed", "1"],
        ["reduce", "--graph", "X", "--vertex", "x1", "x1"],
        # negative or malformed bounds
        ["ext-enumerate", "--graph", "X", "--radius", "-1"],
        ["embed-search", "--graph", "X", "--pattern", "X", "--radius", "-2"],
        ["verify-lemma-path", "--radius", "-1"],
        ["pipeline-t2", "--length", "-1"],
        ["pipeline-t2", "--length", "two"],
        ["verify-all", "one"],
        # missing required flags
        ["reduce", "x1"],
        ["obstruct"],
        ["embed-search", "--graph", "X"],
        ["move-deg3", "--graph", "X"],
        # an empty --out path
        ["counterexample", "--out", ""],
    ],
)
def test_rejected_flags_exit_2(capsys, argv):
    assert run(argv) == 2
    assert "usage: raagembed" in capsys.readouterr().err


def test_help_lists_only_the_flags_a_command_reads(capsys):
    assert run(["counterexample", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--out" in out
    for flag in ("--graph", "--convention", "--radius", "--length", "--seed"):
        assert flag not in out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "raagembed.cli", "counterexample"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "nontrivial" in proc.stdout


def test_a_closed_stdout_ends_without_a_traceback(tmp_path):
    graph = tmp_path / "p7.graph"
    graph.write_text(format_graph(make_path(7)))
    out = tmp_path / "e.json"
    # The listing (about 125 kB) is larger than a pipe holds, so the
    # command is still writing when the reader goes away.
    proc = subprocess.Popen(
        [sys.executable, "-m", "raagembed.cli", "ext-enumerate",
         "--graph", str(graph), "--radius", "4", "--out", str(out)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"5215 vertices within radius 4\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert err == ""
    assert json.loads(out.read_text())["count"] == 5215


class _ClosedStdout:
    """A standard output whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    [
        ["ext-enumerate", "--radius", "2"],
        ["reduce", "x1", "x3", "x1^-1"],
        ["nf", "x3", "x1"],
    ],
    ids=["ext-enumerate", "reduce", "nf"],
)
def test_a_closed_stdout_still_writes_the_out_report(
    monkeypatch, capsys, tmp_path, p5_file, argv
):
    argv = argv[:1] + ["--graph", p5_file] + argv[1:]
    want = tmp_path / "want.json"
    assert run(argv + ["--out", str(want)]) == 0
    got = tmp_path / "got.json"
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    with pytest.raises(BrokenPipeError):
        run(argv + ["--out", str(got)])
    monkeypatch.undo()
    assert got.read_bytes() == want.read_bytes()
