import dataclasses
import json
import os
import subprocess
import sys

import pytest

from circleweights import search
from circleweights.cli import main
from circleweights.core import WeightSystem, minimal_profile
from circleweights.fixtures import v5
from circleweights.search import SearchOptions, classify


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_dim6(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, _, _ = run(["enumerate", "--n", "3", "--minimal", "--out", str(out)], capsys)
    assert code == 0
    graphs = json.loads(out.read_text())
    assert len(graphs) == 7


def test_enumerate_infeasible_profile(capsys):
    code, out, err = run(["enumerate", "--n", "3", "--lambdas", "0,1,1,3"], capsys)
    assert code == 3
    assert out == "" and err.startswith("infeasible profile: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["classify", "--lambdas", "0,1,1,2"],
    ["enumerate"],
    ["enumerate", "--n", "3", "--lambdas", "0,x"],
    ["classify", "--n", "3", "--lambdas", "0,x"],
    ["enumerate", "--n", "2", "--lambdas", ""],
    ["classify", "--n", "2", "--bound-D", "0"],
    ["classify", "--n", "2", "--bound-D", "-1"],
    ["classify", "--n", "2", "--max-labelings", "0"],
    ["classify", "--n", "2", "--C", "0"],
    ["classify", "--n", "2", "--witness-bound", "0"],
    ["classify", "--n", "2", "--jobs", "0"],
    ["classify", "--n", "2", "--jobs", "-3"],
    ["classify", "--n", "2", "--bound-D", "1", "--C", "3"],
    ["hattori", "--c1", "0"],
    ["hattori", "--c1", "-1"],
    ["hattori", "--c1", "1", "--lmax", "-2"],
    ["scan-c1eq1", "--lmax", "0"],
    ["classify", "--n", "2", "--minimal", "--lambdas", "0,1,1,2"],
    ["enumerate", "--n", "2", "--minimal", "--lambdas", "0,1,1,2"],
    ["hattori", "--c1", "5", "--k0", "2"],
    ["hattori", "v5.json", "--c1", "5"],
    ["fixture", "s2xs2", "--xi", "3,2"],
    ["fixture", "cp"],
    ["hattori", "v5.json", "--k0", "2", "--lmax", "5"],
    ["fixture", "v22", "--a", "3", "--b", "7"],
    ["fixture", "cp", "--xi", "3,x"],
    # refusals argparse makes itself
    ["classify", "--n", "x"],
    ["classify", "--n", "2", "--bogus"],
    [],
    ["fixture", "nope"],
])
def test_profile_without_n_is_a_schema_error(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "v5.json").write_text(json.dumps(v5().to_json()))
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == "" and err.startswith("schema error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["classify", "--n", "3", "--lambdas", "0,1,1,3"], "infeasible profile: "),
    (["classify", "--n", "4", "--lambdas", "2,2"], "infeasible profile: nonnegative mode refused"),
])
def test_infeasible_profile_is_one_line_and_exit_three(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == "" and err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: circleweights")


def test_fixture_roundtrip(tmp_path, capsys):
    out = tmp_path / "ws.json"
    code, _, _ = run(["fixture", "v22", "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["n"] == 3
    assert [p["weights"] for p in data["points"]][0] == [1, 2, 3]


def test_fixture_bad_parameters(capsys):
    code, out, err = run(["fixture", "s2xs2", "--a", "2", "--b", "4"], capsys)
    assert code == 2
    assert out == "" and err.startswith("schema error: bad parameters: ") and err.count("\n") == 1


def test_verify_pass_and_fail(tmp_path, capsys):
    ws_file = tmp_path / "v5.json"
    run(["fixture", "v5", "--out", str(ws_file)], capsys)
    code, out, _ = run(["verify", str(ws_file)], capsys)
    assert code == 0
    assert "chern constants C_i: [1, 2, 20, 40]" in out.splitlines()
    assert "Fraction(" not in out

    bad = tmp_path / "bad.json"
    data = json.loads(ws_file.read_text())
    data["points"][0]["weights"] = [2, 4, 6]
    data["points"][0]["lambda"] = 0
    bad.write_text(json.dumps(data))
    code, out, _ = run(["verify", str(bad)], capsys)
    assert code == 3
    assert "zero integrals: FAIL [] = -7/48, [1] = -3/4, [2] = -11/12" in out.splitlines()
    assert "Fraction(" not in out


def test_verify_prints_the_reversed_action_row(tmp_path, capsys):
    # index order with sums 6, 3, -2, -6; not paired, so it fails, but the
    # two rows of Chern constants differ: the reversed action's are read
    # from the negated positive weights
    path = tmp_path / "rev.json"
    path.write_text(json.dumps(WeightSystem(3, ((1, 2, 3), (-1, 1, 3), (-3, -1, 2),
                                                (-3, -2, -1))).to_json()))
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 3
    lines = out.splitlines()
    assert "chern constants C_i: [1, 3, 40/3, 72]" in lines
    assert "reversed-action constants: [1, 2, 15, 48]" in lines


def test_verify_schema_error(tmp_path, capsys):
    f = tmp_path / "junk.json"
    f.write_text('{"n": 2}')
    code, _, _ = run(["verify", str(f)], capsys)
    assert code == 2


@pytest.mark.parametrize("command", [["verify"], ["hattori", "--k0", "2"]])
@pytest.mark.parametrize("old, new", [
    ('"weights": [1, 2, 3]', '"weights": [1.9, 2, 3]'),  # not truncated to 1
    ('"n": 3', '"n": "3"'),  # not parsed as 3
    ('"lambda": 1,', '"lambda": true,'),  # not read as 1
])
def test_weight_system_numbers_must_be_json_integers(command, old, new, tmp_path, capsys):
    """v5 with one of its numbers written as a JSON value that int() takes."""
    text = json.dumps(v5().to_json())
    assert text.count(old) == 1
    path = tmp_path / "v5.json"
    path.write_text(text.replace(old, new))
    code, out, err = run(command[:1] + [str(path)] + command[1:], capsys)
    assert code == 2
    assert out == "" and err.startswith("schema error:") and err.count("\n") == 1


def zero_weight_file(tmp_path, capsys):
    """v5 with its first weight set to zero."""
    path = tmp_path / "zero.json"
    run(["fixture", "v5", "--out", str(path)], capsys)
    data = json.loads(path.read_text())
    data["points"][0]["weights"][0] = 0
    path.write_text(json.dumps(data))
    return path


def test_verify_reports_a_zero_weight_as_structural(tmp_path, capsys):
    path = zero_weight_file(tmp_path, capsys)
    code, out, err = run(["verify", str(path)], capsys)
    assert code == 3 and err == ""
    lines = out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("weight system: ((0, 2, 3),")
    assert lines[1].startswith("structural checks: point 0 has a zero weight;")


def test_verify_reports_a_point_index_above_n_without_a_traceback(tmp_path, capsys):
    # v5 declared with n = 2: point 3 has index 3, which no profile with n = 2 has
    path = tmp_path / "v5n2.json"
    run(["fixture", "v5", "--out", str(path)], capsys)
    data = json.loads(path.read_text())
    data["n"] = 2
    path.write_text(json.dumps(data))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "circleweights.cli", "verify", str(path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 and lines[0].startswith("weight system: ((1, 2, 3),")
    assert lines[1].startswith("structural checks: point 0 carries 3 weights, expected 2;")


# each integer flag that must be at least 1, below 1 in an otherwise valid
# command, and each pair of flags that exclude each other
FLAG_REFUSALS = [
    (["classify", "--n", "2", "--C", "0"], ["--C"]),
    (["classify", "--n", "2", "--bound-D", "0"], ["--bound-D"]),
    (["classify", "--n", "2", "--jobs", "0"], ["--jobs"]),
    (["classify", "--n", "2", "--witness-bound", "0"], ["--witness-bound"]),
    (["classify", "--n", "2", "--max-labelings", "0"], ["--max-labelings"]),
    (["hattori", "v5.json", "--k0", "0"], ["--k0"]),
    (["hattori", "v5.json", "--k0", "-2"], ["--k0"]),
    (["hattori", "--c1", "0"], ["--c1"]),
    (["hattori", "--c1", "1", "--lmax", "0"], ["--lmax"]),
    (["scan-c1eq1", "--lmax", "0"], ["--lmax"]),
    (["classify", "--n", "2", "--C", "1", "--bound-D", "1"], ["--C", "--bound-D"]),
    (["enumerate", "--n", "2", "--minimal", "--lambdas", "0,1,1,2"], ["--minimal", "--lambdas"]),
    (["hattori", "v5.json", "--c1", "5"], ["file", "--c1"]),
]


@pytest.mark.parametrize("argv, flags", FLAG_REFUSALS,
                         ids=[" ".join(argv) for argv, _ in FLAG_REFUSALS])
def test_refusal_names_the_flags_typed(argv, flags, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "v5.json").write_text(json.dumps(v5().to_json()))
    code, out, err = run(argv, capsys)
    assert code == 2 and out == "" and err.count("\n") == 1
    if len(flags) == 1:
        assert err.startswith("schema error: argument %s: must be at least 1" % flags[0])
    else:
        assert err.startswith("schema error: argument ")
        assert all("argument %s" % flag in err for flag in flags)


def test_hattori_refuses_a_zero_weight(tmp_path, capsys):
    path = zero_weight_file(tmp_path, capsys)
    code, out, err = run(["hattori", str(path)], capsys)
    assert code == 2
    assert out == "" and err.startswith("schema error:") and err.count("\n") == 1


def test_hattori_subcommand(tmp_path, capsys):
    ws_file = tmp_path / "v5.json"
    run(["fixture", "v5", "--out", str(ws_file)], capsys)
    code, out, _ = run(["hattori", str(ws_file), "--k0", "2"], capsys)
    assert code == 0
    assert out == "k0=2 d=0 a=[3, 2, -2, -3] r(1)=[1, 3, 1, 0]\n"
    assert "'" not in out


def test_hattori_dim8(capsys):
    code, out, _ = run(["hattori", "--c1", "5"], capsys)
    assert code == 0
    assert json.loads(out) == [[1, "10"]]


def test_scan_c1eq1(capsys):
    code, out, _ = run(["scan-c1eq1", "--lmax", "60"], capsys)
    assert code == 0
    assert json.loads(out)["l"] == [15, 25, 40, 60]


# classify flag, its arguments, and the SearchOptions field it sets to a
# value other than the default
OPTION_FLAGS = [
    ("--bound-D", ["1"], "bound_d", 1),
    ("--C", ["1"], "divisor_c", 1),
    ("--dim8-strict", [], "dim8_strict", True),
    ("--witness-bound", ["3"], "witness_bound", 3),
    ("--max-labelings", ["50"], "max_labelings", 50),
]


def test_every_search_option_has_a_classify_flag(tmp_path, capsys):
    fields = {f.name: f.default for f in dataclasses.fields(SearchOptions)}
    assert sorted(field for _, _, field, _ in OPTION_FLAGS) == sorted(fields)
    for flag, values, field, value in OPTION_FLAGS:
        assert value != fields[field]
        out = tmp_path / "res.json"
        code, _, _ = run(["classify", "--n", "2", flag, *values, "--out", str(out)], capsys)
        assert code == 0
        assert json.loads(out.read_text())["options"][field] == value, flag


def test_classify_dim4_json(tmp_path, capsys):
    out = tmp_path / "res.json"
    code, _, err = run(["classify", "--n", "2", "--minimal", "--out", str(out)], capsys)
    assert code == 0
    res = json.loads(out.read_text())
    assert res["graphs_examined"] == 2
    assert len(res["families"]) == 1
    assert res["families"][0]["magnitudes"] == [3, 3, 3]
    assert "surviving families: 1" in err


def test_classify_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["classify", "--n", "2", "--minimal", "--out", str(a)], capsys)
    run(["classify", "--n", "2", "--minimal", "--out", str(b)], capsys)
    assert a.read_text() == b.read_text()


def test_classify_resume_checkpoint(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    out1 = tmp_path / "r1.json"
    code, _, _ = run(
        ["classify", "--n", "2", "--minimal", "--resume", str(ck), "--out", str(out1)], capsys
    )
    assert code == 0
    blocks = json.loads(ck.read_text())["blocks"]
    assert len(blocks) == 2  # one per graph
    # second run restores every block from the checkpoint and agrees
    out2 = tmp_path / "r2.json"
    code, _, _ = run(
        ["classify", "--n", "2", "--minimal", "--resume", str(ck), "--out", str(out2)], capsys
    )
    assert code == 0
    assert json.loads(out1.read_text())["families"] == json.loads(out2.read_text())["families"]


def test_classify_jobs(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, _ = run(["classify", "--n", "2", "--minimal", "--jobs", "2", "--out", str(out)], capsys)
    assert code == 0
    assert len(json.loads(out.read_text())["families"]) == 1


def test_classify_budget_marks_every_graph_truncated(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, _ = run(["classify", "--n", "3", "--max-labelings", "20", "--out", str(out)], capsys)
    assert code == 0
    graphs = json.loads(out.read_text())["audit"]["graphs"]
    assert len(graphs) == 7 and all(g.get("truncated") for g in graphs.values())


def test_classify_json_is_the_library_result(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, _ = run(["classify", "--n", "2", "--out", str(out)], capsys)
    assert code == 0
    got = json.loads(out.read_text())
    want = classify(minimal_profile(2), SearchOptions()).to_json()
    assert got == json.loads(json.dumps(want))
    # families count the graph's distinct families, not its labelings
    assert got["audit"]["graphs"]["1"] == {"labelings": 4, "families": 2}


@pytest.mark.parametrize("first, second", [
    (["--n", "2"], ["--n", "3"]),
    (["--n", "2", "--bound-D", "1"], ["--n", "2", "--bound-D", "2"]),
    (["--n", "2", "--max-labelings", "20"], ["--n", "2", "--max-labelings", "30"]),
    (None, ["--n", "2"]),
])
def test_classify_refuses_foreign_checkpoint(tmp_path, capsys, first, second):
    ck = tmp_path / "ck.json"
    if first is None:  # a checkpoint in the format without a fingerprint
        ck.write_text(json.dumps({"blocks": {"0:3": {"families": [], "counts": {}}}}))
    else:
        code, _, _ = run(["classify", *first, "--resume", str(ck)], capsys)
        assert code == 0
    before = ck.read_bytes()
    code, out, err = run(["classify", *second, "--resume", str(ck)], capsys)
    assert code == 2
    assert "schema error" in err and "fingerprint" in err and out == ""
    assert ck.read_bytes() == before


def test_classify_resume_is_identical_to_a_fresh_run(tmp_path, capsys):
    fresh, ck = tmp_path / "fresh.json", tmp_path / "ck.json"
    run(["classify", "--n", "2", "--out", str(fresh)], capsys)

    def resumed(*flags):
        out = tmp_path / "out.json"
        code, _, _ = run(["classify", "--n", "2", "--resume", str(ck), *flags, "--out", str(out)],
                         capsys)
        assert code == 0
        return out.read_text()

    assert resumed("--jobs", "2") == fresh.read_text()
    assert resumed("--jobs", "1") == fresh.read_text()
    data = json.loads(ck.read_text())
    keys = sorted(data["blocks"])
    for key in keys[::2]:
        del data["blocks"][key]
    ck.write_text(json.dumps(data))
    assert resumed() == fresh.read_text()
    assert sorted(json.loads(ck.read_text())["blocks"]) == keys


def test_classify_refuses_checkpoint_in_missing_directory(tmp_path, monkeypatch):
    ck, out = tmp_path / "no" / "such" / "ck.json", tmp_path / "out.json"
    argv = ["classify", "--n", "2", "--minimal", "--resume", str(ck), "--out", str(out)]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "circleweights.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert proc.stderr.startswith("schema error:") and proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []

    # refused before any block is searched
    def searched(*args):
        raise AssertionError("a graph was searched")

    monkeypatch.setattr(search, "search_graph", searched)
    with pytest.raises(search.CheckpointMismatch, match="does not exist"):
        classify(minimal_profile(2), SearchOptions(), checkpoint=str(ck))


@pytest.mark.parametrize("argv", [
    ["classify", "--n", "2", "--minimal"],
    ["fixture", "v5"],
    ["enumerate", "--n", "3"],
])
def test_out_in_missing_directory_is_refused_before_any_work(argv, tmp_path, capsys,
                                                             monkeypatch):
    def classified(*args, **kwargs):
        raise AssertionError("classify ran")

    monkeypatch.setattr("circleweights.cli.classify", classified)
    code, out, err = run(argv + ["--out", str(tmp_path / "no" / "y.json")], capsys)
    assert code == 2 and out == ""
    assert err.startswith("schema error: --out") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("written", [False, True])
def test_classify_refuses_resume_and_out_as_one_file(written, tmp_path, capsys, monkeypatch):
    # the result would replace the checkpoint, and the next run would call
    # it a checkpoint for other inputs
    ck = tmp_path / "ck.json"
    if written:
        assert run(["classify", "--n", "2", "--resume", str(ck)], capsys)[0] == 0
    before = ck.read_bytes() if written else None

    def classified(*args, **kwargs):
        raise AssertionError("classify ran")

    monkeypatch.setattr("circleweights.cli.classify", classified)
    for out in (ck, tmp_path / "sub" / ".." / "ck.json"):
        argv = ["classify", "--n", "2", "--minimal", "--resume", str(ck), "--out", str(out)]
        code, stdout, err = run(argv, capsys)
        assert code == 2 and stdout == ""
        assert err.startswith("schema error: --resume and --out") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == ([ck] if written else [])
        assert not written or ck.read_bytes() == before


@pytest.mark.parametrize("flag, kind", [("--resume", "directory"), ("--out", "directory")])
def test_classify_refuses_a_path_of_the_wrong_kind(flag, kind, tmp_path, capsys, monkeypatch):
    path = tmp_path / "taken"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_text("not a cache\n")

    def searched(*args):
        raise AssertionError("a graph was searched")

    monkeypatch.setattr(search, "search_graph", searched)
    code, out, err = run(["classify", "--n", "2", flag, str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("schema error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]
    assert path.is_dir() if kind == "directory" else path.read_text() == "not a cache\n"
