import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from strangedual.catalog import default_catalog_path, load_catalog, report_from_json, verify_all
from strangedual.cli import build_parser, main
from strangedual.polyring import format_poly, parse_poly


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


CHARPOLY_DOT_2235 = {
    "S": """\
1 + 2*t + 2*t^2 + 2*t^3 + 3*t^4 + 4*t^5 + 4*t^6 + 3*t^7 + 2*t^8 + 2*t^9 + 2*t^10 + t^11
graph S_2_2_3_5 {
    c1;
    c2;
    c3;
    d1_1;
    d2_1;
    d3_1;
    d3_2;
    d4_1;
    d4_2;
    d4_3;
    d4_4;
    c1 -- c2;
    c2 -- c3 [style=bold,label="2"];
    d1_1 -- c2;
    d1_1 -- c3;
    d2_1 -- c2;
    d2_1 -- c3;
    d3_1 -- d3_2;
    d3_2 -- c2;
    d3_2 -- c3;
    d4_1 -- d4_2;
    d4_2 -- d4_3;
    d4_3 -- d4_4;
    d4_4 -- c2;
    d4_4 -- c3;
}
""",
    "Pi": """\
1 - t^2 + t^4 - t^6 - t^7 + t^9 - t^11 + t^13
graph Pi_2_2_3_5 {
    c1;
    c2;
    c3;
    c4;
    c5;
    d1_1;
    d2_1;
    d3_1;
    d3_2;
    d4_1;
    d4_2;
    d4_3;
    d4_4;
    c1 -- c3;
    c1 -- c2 [style=dashed];
    c2 -- c3;
    c2 -- c4 [style=bold,label="2"];
    c3 -- c5 [style=bold,label="2"];
    c2 -- c5;
    c3 -- c4;
    c4 -- c5;
    d1_1 -- c2;
    d1_1 -- c4;
    d2_1 -- c2;
    d2_1 -- c4;
    d3_1 -- d3_2;
    d3_2 -- c3;
    d3_2 -- c5;
    d4_1 -- d4_2;
    d4_2 -- d4_3;
    d4_3 -- d4_4;
    d4_4 -- c3;
    d4_4 -- c5;
}
""",
}


@pytest.mark.parametrize("shape", ["S", "Pi"])
def test_charpoly_dot_text(capsys, shape):
    code, out, _ = run(capsys, "charpoly", "2", "2", "3", "5", "--graph", shape, "--dot")
    assert code == 0
    assert out == CHARPOLY_DOT_2235[shape]


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("6*7 / ", "expected factor at offset 7"),
        ("4 / 2 / 2", "more than one '/' at offset 7"),
        ("6 7", "missing '*' between factors at offset 3"),
        ("6**7", "unexpected '*' at offset 3"),
        ("2^ 3", "expected exponent at offset 3"),
        ("0*2", "frame base must be positive at offset 1"),
        ("2*1000001", "frame base 1000001 exceeds limit 1000000 at offset 3"),
    ],
    ids=["empty-side", "two-slashes", "missing-star", "double-star", "empty-exponent", "zero-base", "past-limit"],
)
def test_saito_dual_frame_syntax_error(capsys, text, message):
    assert run(capsys, "saito-dual", text, "--degree", "42") == (1, "", f"error: {message}\n")


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


def test_verify_empty_entry_name(capsys):
    code, out, err = run(capsys, "verify", "--entry", "")
    assert code == 1
    assert out == ""
    assert err == "error: no catalog entry named ''\n"


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
    raw = json.loads(Path(default_catalog_path()).read_text(encoding="utf-8"))
    entry = next(e for e in raw["entries"] if e["name"] == "Ms")
    entry["zeta_frame"] = "6*7 / 1^2*2"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--catalog", str(path))
    assert code == 1
    assert "79/80 checks passed" in out


def test_catalog_env_variable(tmp_path, capsys, monkeypatch):
    raw = json.loads(Path(default_catalog_path()).read_text(encoding="utf-8"))
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


def _written_out_pair(n):
    """h1 = (x+y)^n - 3y^n + z^n and h2 = (x+2y)^n - 5y^n + w^n, expanded."""
    h1 = parse_poly("x + y") ** n - parse_poly(f"3*y^{n} - z^{n}")
    h2 = parse_poly("x + 2*y") ** n - parse_poly(f"5*y^{n} - w^{n}")
    return format_poly(h1), format_poly(h2)


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
        # Each exponent is at the parser's digit limit; their sum is past
        # the limit of str(int).
        (
            ("reduce", f"x*y - z^{'9' * 4300}", f"-x^2*z + y*z^{'9' * 4300} + z^2"),
            "error: exponent has too many digits to print",
        ),
        (
            ("saito-dual", f"2^{'9' * 4300}*2^{'9' * 4300} / 1", "--degree", "2"),
            "error: exponent has too many digits to print",
        ),
        # Past the orbit solver's degree bound: a dense list of 10^11
        # coefficients (a MemoryError), a jet with the powers of 3 up to
        # 3^(10^7) (18-22 s), and z = w^2 taking z^1200 to degree 2400.
        (
            ("dolgachev", "--weights", "2", "2", "2", "2", "x^99999999999 - y^99999999999", "z - w"),
            "error: first equation degree 99999999999 exceeds limit ",
        ),
        (
            ("dolgachev", "--orbits", "--weights", "2", "2", "2", "2")
            + ("3*x^10000000*y - 2*x^10000001", "z - w"),
            "error: first equation degree 10000001 exceeds limit ",
        ),
        (
            ("dolgachev", "--weights", "2", "1", "2", "2", "x*z - w^2", "z^1200 - 2*w^1200 + x^1200"),
            "error: system too complex: elimination degree 2400 on stratum {x,z,w} exceeds limit ",
        ),
        # Two coprime univariate equations of degree 200 with 137-bit
        # coefficients, whose gcd the orbit solver takes.
        (
            ("dolgachev", "--weights", "2", "2", "2", "2", *_written_out_pair(200)),
            "error: system too complex: no constant-coefficient linear variable on stratum {x,y,z}",
        ),
    ],
    ids=[
        "expand-huge",
        "expand-large",
        "dolgachev-large-weights",
        "reduce-exponent-past-print-limit",
        "saito-dual-exponent-past-print-limit",
        "dolgachev-degree-past-bound",
        "dolgachev-orbits-jet-past-bound",
        "dolgachev-elimination-past-bound",
        "dolgachev-coprime-gcd-degree-200",
    ],
)
def test_bounded_work_inputs(argv, stderr):
    # Each input once ran out of memory, took longer than the timeout or
    # ended in a traceback: the expansion before its work bound, the orbit
    # search while it walked the slice's cyclic group, O(weight) steps,
    # the printing of an exponent with more digits than str(int) converts,
    # the orbit solver's dense list and jet at an equation's degree, and
    # its gcd of two coprime equations by a remainder sequence alone.
    # The elimination past the degree bound is refused before it is formed.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-m", "strangedual.cli", *argv]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(stderr) and proc.stderr.count("\n") == 1


def test_dolgachev_high_degree_elimination_is_bounded():
    # On stratum {x,z,w} the first equation gives z = w + 1, which the
    # second takes to its 2000th power: the elimination forms that one
    # power by squaring, with no table of the lower powers, and the
    # degree-2000 residual is refused.  About 1.5 s.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-m", "strangedual.cli", "dolgachev", "--weights", "2", "1", "2", "2"]
    argv += ["z - w - x", "z^2000 - 2*w^2000 + x^2000"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: unresolved orbits present: stratum={x,z,w} unresolved: 2*w^0 + ")
    assert proc.stderr.count("\n") == 1


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
    raw = json.loads(Path(default_catalog_path()).read_text(encoding="utf-8"))
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
    raw = json.loads(Path(default_catalog_path()).read_text(encoding="utf-8"))
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


def test_one_parser_prints_what_fresh_parsers_print(capsys):
    # main builds the parser once per process; successive calls with other
    # subcommands, help and usage errors print what a fresh parser prints.
    argvs = [
        ["weights", "x^2*y + y^3", "--vars", "x,y"],
        ["--help"],
        ["charpoly", "2", "2"],
        ["dolgachev", "--help"],
        ["split-newton", "-y*z + x*w + z^3 + w^2", "--h1", "x*y - w^2"],
        ["dolgachev", "x*y - z*w", "-x^2*w + z^2 + x*w^2", "--weights", "2", "3", "3", "2"],
        ["no-such-command"],
        ["catalog", "show", "--help"],
        ["poincare", "2,6,5,4;8,10", "--expand", "x"],
        ["weights", "x^2*y + y^3", "--vars", "x,y"],
        ["charpoly", "2", "2", "2", "6", "--graph", "Pi"],
    ]
    assert build_parser() is build_parser()
    shared = [_outcome(capsys, argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0, 2, 0, 2, 0, 0]
    assert shared[2][2].startswith("usage: strangedual charpoly") and shared[1][1].startswith("usage: strangedual")


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
        (lambda raw: {**raw, "entries": [dict(raw["entries"][0], kernel="ab")]}, "field 'kernel': expected a list of 4, got str"),
        # int() would truncate these to the shipped values and load them.
        (_first_entry_with("kernel", [1.5, 1.5, 0.5, -2.5]), "field 'kernel': expected an integer, got float"),
        (_first_entry_with("dolgachev", [[2.5, 2], [2, 6]]), "field 'dolgachev': expected an integer, got float"),
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
    raw = json.loads(Path(default_catalog_path()).read_text(encoding="utf-8"))
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(edit(raw)), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--catalog", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot load catalog: ") and err.count("\n") == 1
    assert message in err


# -- catalog file as a total input ------------------------------------------------

_NAMES = ("J'", "K'", "Kb", "L", "Ls", "M", "Ms", "I")
_DELETE = object()
_REPLACEMENTS = (5, "x", [], {}, None, 1.5, True)


def test_catalog_show_matches_golden(capsys):
    # The fields only `catalog show` prints (the change display, the k = 0
    # restrictions, the display names and the germ) are built by the loader.
    out = ""
    for name in _NAMES:
        code, text, _ = run(capsys, "catalog", "show", name)
        assert code == 0
        out += text
    assert out == (Path(__file__).parent / "golden" / "show.txt").read_text(encoding="utf-8")


def _shipped_entry(name="J'"):
    raw = json.loads(Path(default_catalog_path()).read_text(encoding="utf-8"))
    return next(e for e in raw["entries"] if e["name"] == name)


def _nodes(value, path=()):
    # Every key of every object and every index of every list, outermost first.
    children = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    for key, child in children:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _edited(entry, path, replacement):
    entry = json.loads(json.dumps(entry))
    node = entry
    for key in path[:-1]:
        node = node[key]
    if replacement is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = replacement
    return entry


def _verify_catalog(capsys, tmp_path, raw):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return run(capsys, "verify", "--catalog", str(path))


def _verify_entry(capsys, tmp_path, entry):
    # J' is its own dual, so a catalog of J' alone is complete.
    return _verify_catalog(capsys, tmp_path, {"schema": 1, "entries": [entry]})


def _is_report_or_load_error(code, out, err):
    if err:
        one_line = err.startswith("error: cannot load catalog: ") and err.count("\n") == 1
        return (code, out) == (1, "") and one_line
    return code in (0, 1)


# Edits of the shipped J' entry that keep the file well-formed: a null or
# missing optional field, a coefficient written as an integer or dropped,
# and an empty coordinate change.
_WELL_FORMED_EDITS = [
    (("k0_equations",), None),
    (("k0_restrictions",), None),
    (("k0_restrictions",), _DELETE),
    (("sign_note",), _DELETE),
    (("parent", "change", "w"), _DELETE),
    *((("parent", "coefficients", i), edit) for i in range(4) for edit in (5, _DELETE)),
]


def test_every_field_of_the_shipped_entry_is_total(capsys, tmp_path):
    # Each leaf and key of the shipped entry, replaced by a value of another
    # JSON type or deleted: either a report or one load error, never a
    # traceback, and a wrong type is never loaded.
    entry = _shipped_entry()
    wrong = []
    for path in _nodes(entry):
        original = entry
        for key in path:
            original = original[key]
        for edit in (*(r for r in _REPLACEMENTS if type(r) is not type(original)), _DELETE):
            case = (path, "<deleted>" if edit is _DELETE else edit)
            try:
                code, out, err = _verify_entry(capsys, tmp_path, _edited(entry, path, edit))
            except Exception as exc:  # noted with its input; the test fails below
                wrong.append((*case, repr(exc)))
                continue
            refused = bool(err)
            if not _is_report_or_load_error(code, out, err):
                wrong.append((*case, code, err))
            elif refused == ((path, edit) in _WELL_FORMED_EDITS):
                wrong.append((*case, "loaded" if not refused else err))
    assert wrong == []


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("dual",), 5, "entry J': field 'dual': expected a string, got int"),
        (("parent", "change", "w"), 5, "entry J': field 'parent.change': expected a string, got int"),
        (("substitution_case",), ["a"], "field 'substitution_case': expected a string, got a list of 1"),
        (("parent", "coefficients"), ["abc"], "field 'parent.coefficients': not an integer or a fraction p/q"),
        (("parent", "coefficients"), [None], "field 'parent.coefficients': expected an exact rational, got NoneType"),
        (("parent", "coefficients"), 3, "field 'parent.coefficients': expected a list, got int"),
        (("source_terms",), "xyzw", "field 'source_terms': expected a list of 4, got str"),
        (("display",), 5, "field 'display': expected a string, got int"),
        (("sign_note",), 5, "field 'sign_note': expected a string, got int"),
        (("sign_note",), None, "field 'sign_note': expected a string, got NoneType"),
        (("k0_restrictions",), 5, "field 'k0_restrictions': expected a string or null, got int"),
        (("parent", "name"), 5, "field 'parent.name': expected a string, got int"),
        (("dynkin", "germ"), 5, "field 'dynkin.germ': expected a string, got int"),
        (("dolgachev", 0, 0), True, "field 'dolgachev': expected an integer, got bool"),
        (("dynkin", "gamma"), [[2, 0]] * 3, "field 'dynkin.gamma': expected a list of 4, got a list of 3"),
        (("name",), _DELETE, "entry #0: missing field 'name'"),
        (("matfac", "b"), _DELETE, "entry J': missing field 'matfac.b'"),
        (("source_terms", 0), "2*x", "field 'source_terms': 2*x is not a monic monomial"),
        (("k0_weights",), "2,6,5;8,10", "field 'k0_weights': need 4 weights and 2 degrees, got 2,6,5;8,10"),
        (("k0_weights",), "2,6,5,4;8", "field 'k0_weights': need 4 weights and 2 degrees, got 2,6,5,4;8"),
        (("matfac", "a"), "x", "entry J': field 'matfac': a must lie in (z, w): x"),
        (("substitution_case",), "e", "entry J': unknown substitution case 'e'"),
        (("parent", "change", "q"), "x", "entry J': field 'parent.change': unknown variable 'q'"),
        (
            ("parent", "change", "w"),
            "x +* y",
            "entry J': field 'parent.change': expected variable, found '*' at offset 4",
        ),
        (("parent", "change", "w"), "", "entry J': field 'parent.change': empty input at offset 1"),
        (("zeta_frame",), "2 ^3", "entry J': field 'zeta_frame': unexpected character '^' at offset 3"),
        (("zeta_frame",), "2^2*8*10 /", "entry J': field 'zeta_frame': expected factor at offset 11"),
        (
            ("zeta_frame",),
            "2^2*8*10 / 1^2*4*5 / 2",
            "entry J': field 'zeta_frame': more than one '/' at offset 20",
        ),
        (("zeta_frame",), "0 / 1", "entry J': field 'zeta_frame': frame base must be positive at offset 1"),
    ],
    ids=[
        "dual-int",
        "change-int",
        "case-list",
        "coefficient-text",
        "coefficient-null",
        "coefficients-int",
        "source-terms-string",
        "display-int",
        "sign-note-int",
        "sign-note-null",
        "k0-restrictions-int",
        "parent-name-int",
        "germ-int",
        "dolgachev-bool",
        "gamma-three",
        "name-missing",
        "matfac-b-missing",
        "source-term-not-monic",
        "weights-three",
        "weights-one-degree",
        "matfac-constructor",
        "case-unknown",
        "change-unknown-variable",
        "change-image-syntax",
        "change-image-empty",
        "zeta-frame-caret",
        "zeta-frame-empty-side",
        "zeta-frame-two-slashes",
        "zeta-frame-zero-base",
    ],
)
def test_wrong_kind_is_one_load_error(capsys, tmp_path, path, value, message):
    # The first six and the one-degree weight system once ended in a
    # traceback; the next nine loaded.
    code, out, err = _verify_entry(capsys, tmp_path, _edited(_shipped_entry(), path, value))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot load catalog: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "coefficient, message",
    [
        ("1e1000000000", "field 'parent.coefficients': not an integer or a fraction p/q"),
        (0.1, "field 'parent.coefficients': expected an exact rational, got float"),
        ("1" * 5000, "field 'parent.coefficients': coefficient too long"),
        ("1/0", "field 'parent.coefficients': not an integer or a fraction p/q"),
    ],
    ids=["exponent", "float", "past-digit-limit", "zero-denominator"],
)
def test_parent_coefficients_are_exact_and_bounded(tmp_path, coefficient, message):
    # The first once ran past the timeout (Fraction expands the exponent),
    # the second loaded the binary float, the third ended in a traceback.
    entry = _edited(_shipped_entry(), ("parent", "coefficients", 0), coefficient)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"schema": 1, "entries": [entry]}), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-m", "strangedual.cli", "verify", "--catalog", str(path)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: cannot load catalog: entry J': ")
    assert message in proc.stderr and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe{}",
        json.dumps({"schema": 1, "entries": [dict(_shipped_entry(), kernel=[1, 1, 0, 0])]})
        .replace("[1, 1, 0, 0]", "[1, 1, 0, " + "7" * 5000 + "]")
        .encode(),
        b'{"schema": 1, "entries": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    ],
    ids=["not-utf8", "integer-past-digit-limit", "nested-arrays"],
)
def test_undecodable_catalog_is_invalid_json(capsys, tmp_path, content):
    path = tmp_path / "catalog.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "verify", "--catalog", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot load catalog: invalid JSON: ") and err.count("\n") == 1


# -- a domain error in a check fails that check ---------------------------------

#: Single-field edits of the shipped catalog whose domain error once aborted
#: the whole report: (entry, path in the entry, value).
_ABORTING_EDITS = [
    ("J'", ("dolgachev",), [[0, 2], [2, 6]]),
    ("J'", ("k0_equations", 0), "0"),
    ("L", ("decomposition", 0, "poly"), "0"),
    ("Kb", ("dolgachev",), [[10**30, 2], [2, 6]]),
]


def _catalog_edit(name, path, value):
    raw = json.loads(Path(default_catalog_path()).read_text(encoding="utf-8"))
    return _edited(raw, ("entries", _NAMES.index(name), *path), value)


@pytest.mark.parametrize(
    "edit, failing, message",
    [
        (_ABORTING_EDITS[0], {("J'", 8), ("J'", 9), ("J'", 10)}, "need 4 positive integers, got (0, 2, 2, 6)"),
        (_ABORTING_EDITS[1], {("J'", 6)}, "quasi_degree of the zero polynomial"),
        (_ABORTING_EDITS[2], {("L", 6), ("L", 7), ("L", 8)}, "quasi_degree of the zero polynomial"),
        (_ABORTING_EDITS[3], {("Kb", 8), ("L", 9), ("L", 10)}, f"frame base {10**30} exceeds limit 1000000"),
    ],
    ids=["dolgachev-zero", "k0-equation-zero", "decomposition-zero", "dolgachev-huge"],
)
def test_domain_error_in_a_check_is_its_fail_line(capsys, tmp_path, edit, failing, message):
    # Each input once printed only its error, with none of the 80 check lines.
    code, out, err = _verify_catalog(capsys, tmp_path, _catalog_edit(*edit))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[-1] == f"{80 - len(failing)}/80 checks passed"
    assert {(line[:3].strip(), int(line[5:7])) for line in lines if line.endswith(" FAIL")} == failing
    assert f"      - {message}" in lines
    report = verify_all(load_catalog(str(tmp_path / "catalog.json")))
    assert not report.ok and report_from_json(report.to_json()) == report


def test_single_field_sweep_ends_in_a_report_or_one_load_error(capsys, tmp_path):
    # A seeded sample of leaf edits over all eight entries, plus the edits
    # that once aborted the report.
    raw = json.loads(Path(default_catalog_path()).read_text(encoding="utf-8"))
    edits = []
    for name, entry in zip(_NAMES, raw["entries"]):
        for path in _nodes(entry):
            leaf = entry
            for key in path:
                leaf = leaf[key]
            if type(leaf) not in (dict, list):
                edits += [(name, path, value) for value in (0, -1, 10**30, "0", "", None)]
    wrong = []
    for edit in random.Random(1).sample(edits, 200) + _ABORTING_EDITS:
        try:
            code, out, err = _verify_catalog(capsys, tmp_path, _catalog_edit(*edit))
        except Exception as exc:  # noted with its input; the test fails below
            wrong.append((*edit, repr(exc)))
            continue
        if not _is_report_or_load_error(code, out, err) or not (err or out.endswith("/80 checks passed\n")):
            wrong.append((*edit, code, err or out[-200:]))
    assert wrong == []


#: One valid argument vector per subcommand; the fuzz edits its arguments.
_FUZZ_BASES = (
    ("transpose", "x^4*y^2*w^3 + z^2 + y^2*z*w + x^4*z*w^2"),
    ("weights", "x^2*y + y^3", "--vars", "x,y"),
    ("reduce", "x*y - w^2", "-x^2*z + y*w + z^2 + x*w^2"),
    ("lift", "w^2", "w", "-x^2*z + z^2 + x*w^2"),
    ("poincare", "2,6,5,4;8,10", "--expand", "6"),
    ("saito-dual", "1^1*12 / 3", "--degree", "12"),
    ("charpoly", "2", "2", "2", "6", "--graph", "Pi"),
    ("split-newton", "-y*z + x*w + z^3 + w^2", "--h1", "x*y - w^2"),
    ("dolgachev", "x*y - z*w", "-x^2*w + z^2 + x*w^2", "--weights", "2", "3", "3", "2"),
    ("catalog", "show", "J'"),
    ("verify", "--entry", "Kb"),
)
_FUZZ_ALPHABET = "0123456789xyzwXY+-*/^,;.' _()"
#: The largest arm parameter the fuzz passes to ``charpoly``.
_FUZZ_MAX_ARM = 10**3


def _fuzz_edit(rng, text):
    # One to three character insertions, deletions or replacements.
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(chars))
        kind = rng.randrange(3) if at < len(chars) else 0
        if kind == 0:
            chars.insert(at, rng.choice(_FUZZ_ALPHABET))
        elif kind == 1:
            del chars[at]
        else:
            chars[at] = rng.choice(_FUZZ_ALPHABET)
    return "".join(chars)


def _fuzz_corpus(seed=20261018, count=1000):
    """``count`` argument vectors, each a valid one with one argument after
    the subcommand edited; ``charpoly`` arms stay at most ``_FUZZ_MAX_ARM``."""
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < count:
        argv = list(_FUZZ_BASES[len(corpus) % len(_FUZZ_BASES)])
        at = rng.randrange(1, len(argv))
        argv[at] = _fuzz_edit(rng, argv[at])
        arms = argv[1:5] if argv[0] == "charpoly" else []
        if any(arm.isdecimal() and int(arm) > _FUZZ_MAX_ARM for arm in arms):
            continue
        corpus.append(argv)
    return corpus


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seeded_cli_fuzz_ends_in_an_exit_status(capsys):
    # Every edited argument vector ends in exit status 0, 1 or 2 with no
    # exception escaping, each in bounded time.
    wrong = []
    for argv in _fuzz_corpus():
        start = time.perf_counter()
        try:
            code, out, err = _outcome(capsys, argv)
        except Exception as exc:  # noted with its input; the test fails below
            wrong.append((argv, repr(exc)))
            continue
        elapsed = time.perf_counter() - start
        if code not in (0, 1, 2) or elapsed > 5:
            wrong.append((argv, code, round(elapsed, 2), err[-200:]))
        elif code == 1 and not err.startswith("error: "):
            wrong.append((argv, code, err[-200:]))
    assert wrong == []
