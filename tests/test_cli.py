import json
import os

import pytest

from circleweights.cli import _result_json, main
from circleweights.core import minimal_profile
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
    code, _, err = run(["enumerate", "--n", "3", "--lambdas", "0,1,1,3"], capsys)
    assert code == 3
    assert "infeasible" in err


def test_fixture_roundtrip(tmp_path, capsys):
    out = tmp_path / "ws.json"
    code, _, _ = run(["fixture", "v22", "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["n"] == 3
    assert [p["weights"] for p in data["points"]][0] == [1, 2, 3]


def test_fixture_bad_parameters(capsys):
    code, _, err = run(["fixture", "s2xs2", "--a", "2", "--b", "4"], capsys)
    assert code == 2


def test_verify_pass_and_fail(tmp_path, capsys):
    ws_file = tmp_path / "v5.json"
    run(["fixture", "v5", "--out", str(ws_file)], capsys)
    code, _, _ = run(["verify", str(ws_file)], capsys)
    assert code == 0

    bad = tmp_path / "bad.json"
    data = json.loads(ws_file.read_text())
    data["points"][0]["weights"] = [2, 4, 6]
    data["points"][0]["lambda"] = 0
    bad.write_text(json.dumps(data))
    code, _, _ = run(["verify", str(bad)], capsys)
    assert code == 3


def test_verify_schema_error(tmp_path, capsys):
    f = tmp_path / "junk.json"
    f.write_text('{"n": 2}')
    code, _, _ = run(["verify", str(f)], capsys)
    assert code == 2


def test_hattori_subcommand(tmp_path, capsys):
    ws_file = tmp_path / "v5.json"
    run(["fixture", "v5", "--out", str(ws_file)], capsys)
    code, out, _ = run(["hattori", str(ws_file), "--k0", "2"], capsys)
    assert code == 0
    assert "k0=2" in out and "d=0" in out


def test_hattori_dim8(capsys):
    code, out, _ = run(["hattori", "--c1", "5"], capsys)
    assert code == 0
    assert json.loads(out) == [[1, "10"]]


def test_scan_c1eq1(capsys):
    code, out, _ = run(["scan-c1eq1", "--lmax", "60"], capsys)
    assert code == 0
    assert json.loads(out)["l"] == [15, 25, 40, 60]


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
    assert len(blocks) == 4  # 2 graphs x divisors {3, 1}
    # second run restores every block from the checkpoint and agrees
    out2 = tmp_path / "r2.json"
    code, _, _ = run(
        ["classify", "--n", "2", "--minimal", "--resume", str(ck), "--out", str(out2)], capsys
    )
    assert code == 0
    assert json.loads(out1.read_text())["families"] == json.loads(out2.read_text())["families"]


def test_classify_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    run(["classify", "--n", "2", "--minimal", "--cache", str(cache), "--out", str(out1)], capsys)
    assert len(os.listdir(cache)) == 1
    code, _, err = run(
        ["classify", "--n", "2", "--minimal", "--cache", str(cache), "--out", str(out2)], capsys
    )
    assert code == 0
    assert "cached" in err
    assert out1.read_text() == out2.read_text()


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
    want = _result_json(classify(minimal_profile(2), SearchOptions()))
    assert got == json.loads(json.dumps(want))
    # families count only candidates new to the run, not every block's
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
