import json
from pathlib import Path

import pytest

from preproj import fixedring, molien
from preproj.cli import main
from preproj.parsing import parse_ratfun
from preproj.ratfun import Poly

GOLDEN = Path(__file__).parent / "golden"


def write_job(tmp_path, n=3, generators=(), options=None, name="job.json"):
    doc = {"quiver": {"family": "A_tilde", "n": n}}
    if generators:
        doc["generators"] = [{"c": list(c), "t": list(t)} for c, t in generators]
    if options:
        doc["options"] = options
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


HALFTURN = (["1", "1", "1"], ["-1", "-1", "-1"])
ORDER6 = (["1", "-1", "-1"], ["zeta(3)", "-zeta(3)", "-zeta(3)"])
ORDER3 = (["zeta(3)", "1", "zeta(3)^2"], ["1", "zeta(3)", "zeta(3)^2"])
# c_i t_i = zeta(12)^7: the printed series have zeta(12)^k coefficients
CONDUCTOR12 = (["zeta(4)", "zeta(4)^3", "1"],
               ["zeta(3)", "zeta(3)*zeta(4)^2", "zeta(3)*zeta(4)"])


def test_trace_command(tmp_path, capsys):
    job = write_job(tmp_path, generators=[HALFTURN])
    assert main(["trace", job]) == 0
    out = capsys.readouterr().out
    assert "Tr(g,t) = 3/(1-t^2)" in out
    assert "pole order at t=1: 1" in out


def test_trace_identity_n4(tmp_path, capsys):
    job = write_job(tmp_path, n=4, generators=[(["1"] * 4, ["1"] * 4)])
    assert main(["trace", job]) == 0
    assert "4/(1-t)^2" in capsys.readouterr().out


def test_trace_json_round_trip(tmp_path, capsys):
    job = write_job(tmp_path, generators=[ORDER3], options={"truncation": 40})
    assert main(["trace", job, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == 1
    total = parse_ratfun(doc["total"])
    expect = parse_ratfun(
        "3*i*(1-t^2)*(-2*i+(-i + (-i*(zeta(3)-zeta(3)^2)))*t^2)/(2*(1-t^3)^2)"
    )
    assert total == expect
    for entry in doc["vector"]:
        parse_ratfun(entry)  # every printed value re-parses


def test_hilbert_command(tmp_path, capsys):
    job = write_job(tmp_path)
    assert main(["hilbert", job]) == 0
    assert "H_A(t) = 3/(1-t)^2" in capsys.readouterr().out


def test_molien_command(tmp_path, capsys):
    job = write_job(tmp_path, generators=[ORDER6], options={"truncation": 40})
    assert main(["molien", job]) == 0
    out = capsys.readouterr().out
    assert "(3 + t + t^2)/(1-t^3)^2" in out
    assert "matrix series: ok (checked against path sums)" in out


def test_molien_and_diagnose_zeta3_4cycle(tmp_path, capsys):
    job = write_job(tmp_path, n=4, generators=[(["zeta(3)"] * 4, ["zeta(3)"] * 4)])
    assert main(["molien", job, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matrix_status"] == "ok"
    assert len(doc["matrix"]) == 4
    assert main(["diagnose", job, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "NotProjective"


def test_diagnose_command(tmp_path, capsys):
    job = write_job(tmp_path, generators=[ORDER6])
    assert main(["diagnose", job]) == 0
    out = capsys.readouterr().out
    assert "verdict: ProjectiveNotFreeConsistent" in out

    job41 = write_job(tmp_path, generators=[HALFTURN], name="j41.json")
    assert main(["diagnose", job41]) == 0
    out = capsys.readouterr().out
    assert "verdict: FreeConsistent" in out
    assert "freeness cofactor: 1 + t" in out


def test_fixed_ring_command(tmp_path, capsys):
    job = write_job(tmp_path, generators=[HALFTURN], options={"truncation": 10})
    assert main(["fixed-ring", job]) == 0
    out = capsys.readouterr().out
    assert "generators complete through degree 10: True" in out
    assert "presentation matches the averaged trace series: True" in out


def test_verify_presentation_command(tmp_path, capsys):
    job = write_job(tmp_path, generators=[ORDER6], options={"truncation": 40})
    assert main(["fixed-ring", job, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    pres_file = tmp_path / "pres.json"
    pres_file.write_text(json.dumps(doc["presentation"]))
    assert main(["verify-presentation", job, "--presentation", str(pres_file)]) == 0
    assert "presentation verified: True" in capsys.readouterr().out


def test_verify_presentation_fails_on_incomplete(tmp_path, capsys):
    job = write_job(tmp_path, generators=[ORDER6], options={"truncation": 40})
    assert main(["fixed-ring", job, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    pres = doc["presentation"]
    pres["relations"] = pres["relations"][:-1]
    pres_file = tmp_path / "pres.json"
    pres_file.write_text(json.dumps(pres))
    assert main(["verify-presentation", job, "--presentation", str(pres_file)]) == 1


def test_bad_json_is_hard_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["trace", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_automorphism_is_hard_error(tmp_path, capsys):
    job = write_job(tmp_path, generators=[(["1", "1", "1"], ["1", "1", "-1"])])
    assert main(["trace", job]) == 2
    err = capsys.readouterr().err
    assert "generator 1" in err


def test_bad_scalar_reports_position(tmp_path, capsys):
    job = write_job(tmp_path, generators=[(["1", "1", "oops"], ["1", "1", "1"])])
    assert main(["trace", job]) == 2
    assert "error:" in capsys.readouterr().err


def test_group_cap_exceeded(tmp_path, capsys):
    job = write_job(tmp_path, generators=[ORDER6])
    assert main(["molien", job, "--group-cap", "3"]) == 2


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io
    doc = json.dumps({"quiver": {"family": "A_tilde", "n": 3},
                      "generators": [{"c": HALFTURN[0], "t": HALFTURN[1]}]})
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert main(["trace"]) == 0
    assert "3/(1-t^2)" in capsys.readouterr().out


@pytest.mark.parametrize("command, flags", [
    ("trace", ["--degree", "30"]),
    ("molien", []),
    ("diagnose", []),
])
def test_golden_conductor12(tmp_path, capsys, command, flags):
    job = write_job(tmp_path, generators=[CONDUCTOR12])
    assert main([command, job, "--json", *flags]) == 0
    golden = (GOLDEN / ("conductor12_%s.json" % command)).read_text()
    assert capsys.readouterr().out == golden


def test_failed_certificate_exits_3(tmp_path, capsys, monkeypatch):
    real = molien._end_vertex_numerators

    def perturbed(g):
        P = real(g)
        P[1][2] = P[1][2] + Poly.t_power(3)
        return P

    monkeypatch.setattr(molien, "_end_vertex_numerators", perturbed)
    job = write_job(tmp_path, generators=[ORDER3])
    assert main(["molien", job, "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: internal inconsistency: matrix row sums disagree with the vector series"]
    assert "Traceback" not in captured.err


def test_rewrite_limit_exits_2(tmp_path, capsys, monkeypatch):
    def capped(G, gens, D=None):
        raise fixedring.RewriteLimitError("no normal form within 10000 steps")

    monkeypatch.setattr(fixedring, "discover_relations", capped)
    job = write_job(tmp_path, generators=[HALFTURN])
    assert main(["fixed-ring", job, "--json"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: no normal form within 10000 steps"]
