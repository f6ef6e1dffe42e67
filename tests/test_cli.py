import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from strangedual.catalog import default_catalog_path, report_from_json
from strangedual.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poincare_with_expansion(capsys):
    code, out, _ = run(capsys, "poincare", "2,6,5,4;8,10", "--expand", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "8*10 / 2*4*5*6"
    assert lines[1] == "1,0,1,0,2,1,3"


def test_charpoly_matches_table_frame(capsys):
    code, out, _ = run(capsys, "charpoly", "2", "2", "2", "6")
    assert code == 0
    assert out.strip() == "1 + 2*t + t^2 + t^4 + 3*t^5 + 3*t^6 + t^7 + t^9 + 2*t^10 + t^11"


def test_charpoly_dot_output(capsys):
    code, out, _ = run(capsys, "charpoly", "2", "2", "2", "6", "--graph", "Pi", "--dot")
    assert code == 0
    assert "graph Pi_2_2_2_6 {" in out
    assert "style=dashed" in out


def test_transpose_follows_written_order(capsys):
    code, out, _ = run(capsys, "transpose", "x^4*y^2*w^3 + z^2 + y^2*z*w + x^4*z*w^2")
    assert code == 0
    assert out.strip() == "x^4*w^4 + x^3*z*w^2 + x^2*z^2 + y^2*z*w"


def test_weights_output(capsys):
    code, out, _ = run(capsys, "weights", "x^2*y + y^3", "--vars", "x,y")
    assert code == 0
    assert "raw weights:     (2,2; 6)" in out
    assert "reduced weights: (1,1; 3)" in out
    assert "order 3" in out
    assert "|G_f| = 6" in out


def test_reduce_and_lift(capsys):
    code, out, _ = run(capsys, "reduce", "x*y - w^2", "-x^2*z + y*w + z^2 + x*w^2")
    assert code == 0
    assert out.strip() == "-x^3*z + x^2*w^2 + x*z^2 + w^3"
    code, out, _ = run(capsys, "lift", "w^2", "w", "-x^2*z + z^2 + x*w^2")
    assert code == 0
    assert out.strip().splitlines() == ["x*y - w^2", "-x^2*z + x*w^2 + y*w + z^2"]


def test_saito_dual(capsys):
    code, out, _ = run(capsys, "saito-dual", "1^1*12 / 3", "--degree", "12")
    assert code == 0
    assert out.strip() == "4 / 1^1*12"


def test_saito_dual_domain_error(capsys):
    code, _, err = run(capsys, "saito-dual", "2", "--degree", "5")
    assert code == 1
    assert "does not divide" in err


def test_split_newton(capsys):
    code, out, _ = run(capsys, "split-newton", "-y*z + x*w + z^3 + w^2", "--h1", "x*y - w^2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "face 1: z^3 + x*w + w^2   weights 3,3,2,3;6,6"
    assert lines[1] == "face 2: z^3 - y*z + w^2   weights 2,4,2,3;6,6"


def test_dolgachev(capsys):
    code, out, _ = run(
        capsys, "dolgachev", "x*y - z*w", "-x^2*w + z^2 + x*w^2", "--weights", "2", "3", "3", "2"
    )
    assert code == 0
    assert out.strip() == "(2, 2)"


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.strip().endswith("80/80 checks passed")


def test_verify_single_entry(capsys):
    code, out, _ = run(capsys, "verify", "--entry", "Kb")
    assert code == 0
    assert out.strip().endswith("10/10 checks passed")


def test_verify_json_roundtrip(capsys):
    code, out, _ = run(capsys, "verify", "--json")
    assert code == 0
    data = json.loads(out)
    report = report_from_json(data)
    assert report.ok
    assert report.total == 80


@pytest.mark.parametrize("argv, golden", [(["verify"], "verify.txt"), (["verify", "--json"], "verify.json")])
def test_verify_output_matches_golden(capsys, argv, golden):
    # Refactors must leave the report byte for byte as recorded.
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / golden).read_text(encoding="utf-8")


def test_verify_failure_exit_status(tmp_path, capsys):
    raw = json.loads(open(default_catalog_path(), encoding="utf-8").read())
    entry = next(e for e in raw["entries"] if e["name"] == "Ms")
    entry["zeta_frame"] = "6*7 / 1^2*2"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--catalog", str(path))
    assert code == 1
    assert "79/80 checks passed" in out


def test_catalog_env_variable(tmp_path, capsys, monkeypatch):
    raw = json.loads(open(default_catalog_path(), encoding="utf-8").read())
    raw["entries"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    monkeypatch.setenv("SD_CATALOG", str(path))
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "0/0 checks passed" in out


def test_catalog_show(capsys):
    code, out, _ = run(capsys, "catalog", "show", "Kb")
    assert code == 0
    assert "K♭_{1,-1}" in out
    assert "dual: L_{1,-1}" in out
    assert "Gabrielov: 2,2;3,5" in out
    assert "zeta frame: 2*7*8 / 1^2*4" in out


def test_catalog_show_unknown(capsys):
    code, _, err = run(capsys, "catalog", "show", "nope")
    assert code == 1
    assert "no catalog entry" in err


def test_computation_error_status(capsys):
    code, _, err = run(capsys, "reduce", "x^2 + y^2", "z^2 + y*w")
    assert code == 1
    assert "x*y" in err
    for argv, message in (
        (("transpose", "x^2*y + y^3", "--vars", "x,q"), "error: bad variable list"),
        (("transpose", "x^2 + x^3", "--vars", "x,x"), "error: bad variable list"),
        (("weights", "x^2 + y^3 + z^5", "--vars", "x,y"), "error: term z^5 uses inactive variables"),
        (("reduce", "x*y", "y"), "error: a must have degree >= 2: 0"),
        # a*b has about 8000 digits, past the limit of str(int).
        (
            ("reduce", f"x*y - {'9' * 4000}*w^2", f"-x^2*z + {'9' * 4000}*y*w + z^2"),
            "error: coefficient has too many digits to print",
        ),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith(message) and err.count("\n") == 1, argv


@pytest.mark.parametrize(
    "gammas, code, stderr",
    [
        (("3000", "3000", "3000", "3000"), 0, ""),
        (("10000000", "1", "1", "1"), 1, "error: need 4 arm parameters in [1, 1000000], got "),
    ],
    ids=["large-arms", "arm-past-limit"],
)
def test_charpoly_arm_bounds(gammas, code, stderr):
    # Linear in the arm lengths; an arm past the frame-base limit is
    # refused before any polynomial is built.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-m", "strangedual.cli", "charpoly", *gammas]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(stderr) and proc.stderr.count("\n") == code


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (("poincare", "2,6,5,4;8,10", "--expand", "100000000000"), "error: expansion work "),
        (("poincare", "2,6,5,4;8,10", "--expand", "50000000"), "error: expansion work "),
        (
            ("dolgachev", "x*y - z*w", "-x^2*w + z^2 + x*w^2", "--weights")
            + ("400000", "600000", "600000", "400000"),
            "error: system too complex",
        ),
    ],
    ids=["expand-huge", "expand-large", "dolgachev-large-weights"],
)
def test_bounded_work_inputs(argv, stderr):
    # Each input once ran out of memory or took longer than the timeout:
    # the expansion before its work bound, the orbit search while it
    # walked the slice's cyclic group, O(weight) steps.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-m", "strangedual.cli", *argv]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(stderr) and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "frame, reason",
    [
        ("12^500 / 3^400*4^300", "not a polynomial: expansion has "),
        ("2^3000 / 1^1", "expansion work 18015002 exceeds limit 10000000"),
    ],
    ids=["not-polynomial-large", "past-expansion-bound"],
)
def test_zeta_frame_past_bound_is_a_failed_check(tmp_path, frame, reason):
    # The first frame once took about 12 s to refuse; the second is a
    # polynomial whose expansion is past the work bound, which once
    # aborted the whole report.
    raw = json.loads(open(default_catalog_path(), encoding="utf-8").read())
    raw["entries"][0]["zeta_frame"] = frame
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-m", "strangedual.cli", "verify", "--catalog", str(path)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=10)
    assert (proc.returncode, proc.stderr) == (1, "")
    lines = proc.stdout.splitlines()
    failed = [i for i, line in enumerate(lines) if line.endswith(" FAIL")]
    assert len(failed) == 1 and lines[failed[0]].startswith("J'  [ 9] zeta identity")
    assert any(reason in line for line in lines if line.startswith("      - "))
    assert lines[-1] == "79/80 checks passed"


def test_catalog_show_failure_prints_nothing(tmp_path, capsys):
    raw = json.loads(open(default_catalog_path(), encoding="utf-8").read())
    raw["entries"][0]["zeta_frame"] = "1 / 1^1"
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run(capsys, "catalog", "show", "J'", "--catalog", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: not a polynomial: ") and err.count("\n") == 1


def test_usage_error_status(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["charpoly", "2", "2"])
    assert exc.value.code == 2


def test_bad_polynomial_status(capsys):
    code, _, err = run(capsys, "transpose", "x^^2")
    assert code == 1
    assert "offset 3" in err


def _first_entry_with(field, value):
    return lambda raw: {**raw, "entries": [dict(raw["entries"][0], **{field: value})]}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: [raw], "expected a JSON object at the top level, got list"),
        (lambda raw: {**raw, "entries": {}}, "'entries' must be a list of JSON objects"),
        (lambda raw: {**raw, "entries": [dict(raw["entries"][0], kernel="ab")]}, "kernel: expected integers"),
        # int() would truncate these to the shipped values and load them.
        (_first_entry_with("kernel", [1.5, 1.5, 0.5, -2.5]), "kernel: expected integers"),
        (_first_entry_with("dolgachev", [[2.5, 2], [2, 6]]), "dolgachev: expected [base, extra] pairs"),
        (_first_entry_with("decomposition", [1, 2]), "field 'decomposition': expected a dict, got int"),
        (_first_entry_with("matfac", 5), "field 'matfac': expected a dict, got int"),
        (_first_entry_with("parent", 7), "field 'parent': expected a dict, got int"),
        (_first_entry_with("dynkin", 3), "field 'dynkin': expected a dict, got int"),
    ],
    ids=[
        "top-level-array",
        "entries-object",
        "kernel-string",
        "kernel-floats",
        "pair-floats",
        "decomposition-ints",
        "matfac-int",
        "parent-int",
        "dynkin-int",
    ],
)
def test_malformed_catalog_status(tmp_path, capsys, edit, message):
    raw = json.loads(open(default_catalog_path(), encoding="utf-8").read())
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(edit(raw)), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--catalog", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot load catalog: ") and err.count("\n") == 1
    assert message in err
