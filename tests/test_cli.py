"""Command dispatch, exit codes, output shape, and determinism."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from swcalc.cli import main
from swcalc.kahler import SWRow

from conftest import B2_ZERO, P2_FILE_TEXT, b2_zero_text

ROOT = Path(__file__).resolve().parent.parent

# Stdout and exit code of each command on the demo files, text and JSON.
# Default stdout is a contract: a refactor must reproduce it byte for byte.
GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(p2_file, capsys):
    code, out, err = run(capsys, ["validate", str(p2_file)])
    assert code == 0
    assert out == "ok: P2: all invariants satisfied\n"
    assert err == ""


def test_validate_reports_violations(tmp_path, capsys):
    path = tmp_path / "bad.manifold"
    path.write_text(P2_FILE_TEXT.replace("euler = 3", "euler = 4"), encoding="utf-8")
    code, out, _ = run(capsys, ["validate", str(path)])
    assert code == 2
    assert out.startswith("violation:")
    assert "euler" in out
    # Every other command refuses the file before computing anything.
    code, out, err = run(capsys, ["dim", str(path), "--c=3"])
    assert (code, out) == (2, "")
    assert err.startswith("error: manifold data failed validation: euler = 4 violates")


def test_validate_reports_rays_on_different_components(tmp_path, capsys):
    # sw-table refuses this file, so validate must not call it valid.
    path = tmp_path / "flipped.manifold"
    text = (ROOT / "demos" / "p2.manifold").read_text(encoding="utf-8")
    assert "\npsc_ray = 1\n" in text
    path.write_text(text.replace("\npsc_ray = 1\n", "\npsc_ray = -1\n"), encoding="utf-8")
    code, out, _ = run(capsys, ["validate", str(path)])
    assert code == 2
    assert out == (
        "violation: the PSC ray and the Kahler ray designate different hyperbola "
        "components; the two pipelines would use different orientation data\n"
    )
    code, out, err = run(capsys, ["sw-table", str(path), "--cmin=-3", "--cmax=3"])
    assert code == 2 and out == "" and "different hyperbola components" in err


def _demo_p2_with(tmp_path, **values):
    """demos/p2.manifold with the given keys' values replaced."""
    text = (ROOT / "demos" / "p2.manifold").read_text(encoding="utf-8")
    for key, value in values.items():
        old = next(line for line in text.splitlines() if line.startswith(f"{key} = "))
        text = text.replace(old, f"{key} = {value}")
    path = tmp_path / "edited.manifold"
    path.write_text(text, encoding="utf-8")
    return path


def test_validate_lists_every_kahler_violation(tmp_path, capsys):
    path = _demo_p2_with(tmp_path, canonical_class="-3,1", kahler_ray="1,2")
    code, out, _ = run(capsys, ["validate", str(path)])
    assert code == 2
    assert out == (
        "violation: canonical class has length 2, expected b2 = 1\n"
        "violation: kahler_ray: period ray has length 2, expected b2 = 1\n"
    )


def test_wrong_length_ray_is_worded_alike(tmp_path, capsys):
    expected = "period ray has length 2, expected b2 = 1"
    for key in ("psc_ray", "kahler_ray"):
        path = _demo_p2_with(tmp_path, **{key: "1,2"})
        code, out, _ = run(capsys, ["validate", str(path)])
        assert (code, out) == (2, f"violation: {key}: {expected}\n")
        code, out, err = run(capsys, ["sw-table", str(path), "--cmin=-3", "--cmax=3"])
        assert code == 2 and out == "" and expected in err


def test_validate_json(p2_file, tmp_path, capsys):
    code, out, _ = run(capsys, ["validate", str(p2_file), "--format", "json"])
    assert code == 0
    assert json.loads(out) == {
        "command": "validate", "name": "P2", "ok": True, "violations": [],
    }
    path = tmp_path / "bad.manifold"
    path.write_text(P2_FILE_TEXT.replace("euler = 3", "euler = 4"), encoding="utf-8")
    code, out, _ = run(capsys, ["validate", str(path), "--format", "json"])
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False and payload["violations"]


def test_validate_echo_round_trip(p2_file, tmp_path, capsys):
    code, out, _ = run(capsys, ["validate", str(p2_file), "--echo"])
    assert code == 0
    echoed = tmp_path / "echo.manifold"
    echoed.write_text(out, encoding="utf-8")
    code2, out2, _ = run(capsys, ["validate", str(echoed), "--echo"])
    assert code2 == 0
    assert out2 == out


@pytest.mark.parametrize("name, b1, euler", B2_ZERO)
def test_validate_echo_at_b2_zero(tmp_path, capsys, name, b1, euler):
    text = b2_zero_text(name, b1, euler)
    path = tmp_path / "b2_zero.manifold"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, ["validate", str(path), "--echo"]) == (0, text, "")


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.manifold"
    path.write_text(P2_FILE_TEXT.replace("[intersection_form]\n1", "[intersection_form]\n1 x"))
    code, out, err = run(capsys, ["validate", str(path)])
    assert code == 3
    assert out == ""
    assert err.startswith("parse error:")
    assert "line" in err and "column" in err


@pytest.mark.parametrize(
    "entry, message",
    [
        ("3 1 1 1", "triple cup index (3,1,1) out of range"),
        ("1 1 2 1", "triple cup entry (1,1,2) must vanish by antisymmetry"),
    ],
)
def test_refused_cup_entry_is_a_parse_error_at_its_header(tmp_path, capsys, entry, message):
    text = (ROOT / "demos" / "torus_x_sphere.manifold").read_text(encoding="utf-8")
    header = text.splitlines().index("[triple_cup]") + 1
    path = tmp_path / "cup.manifold"
    path.write_text(text.replace("\n1 2 1 1\n", f"\n1 2 1 1\n{entry}\n"), encoding="utf-8")
    code, out, err = run(capsys, ["validate", str(path)])
    assert (code, out) == (3, "")
    assert err == f"parse error: line {header}, column 1: {message}\n"


def test_validate_large_b1_without_cup_entries(tmp_path, capsys):
    # A dense b1 x b1 x b2 cup tensor would hold 9 * 10^8 cells here.
    text = (ROOT / "demos" / "p2.manifold").read_text(encoding="utf-8")
    path = tmp_path / "p2_b1.manifold"
    path.write_text(
        text.replace("b1 = 0", "b1 = 30000").replace("euler = 3", "euler = -59997"),
        encoding="utf-8",
    )
    code, out, err = run(capsys, ["validate", str(path)])
    assert (code, out, err) == (0, "ok: P2: all invariants satisfied\n", "")


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.manifold"
    path.write_bytes(b"[manifold]\n\xff\n")
    code, out, err = run(capsys, ["validate", str(path)])
    assert (code, out) == (3, "")
    assert err.startswith("parse error: line 2")


def test_dim_abelian(p2_file, capsys):
    code, out, _ = run(capsys, ["dim", str(p2_file), "--c=3"])
    assert code == 0
    assert out == "c = 3\nw_c = 0\n"


def test_dim_rejects_non_characteristic(p2_file, capsys):
    code, out, err = run(capsys, ["dim", str(p2_file), "--c=2"])
    assert code == 2
    assert "not characteristic" in err
    for argv, message in [
        ([], "supply --c for the abelian dimension or --pu2"),
        (["--pu2"], "--pu2 needs both --p1 and --c1"),
        (["--pu2", "--p1=1"], "--pu2 needs both --p1 and --c1"),
    ]:
        code, out, err = run(capsys, ["dim", str(p2_file), *argv])
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_dim_pu2(p2_file, capsys):
    code, out, _ = run(capsys, ["dim", str(p2_file), "--pu2", "--p1=-3", "--c1=4"])
    assert code == 0
    assert out == "p1 = -3\nc1 = 4\nchi = 6\n"


def test_dim_pu2_inadmissible(p2_file, capsys):
    code, _, err = run(capsys, ["dim", str(p2_file), "--pu2", "--p1=-2", "--c1=4"])
    assert code == 2
    assert "admissible" in err


def test_sw_table_matches_thresholds(p2_file, capsys):
    code, out, _ = run(capsys, ["sw-table", str(p2_file), "--cmin=-9", "--cmax=9"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c\tsw_plus\tsw_minus"
    rows = [line.split("\t") for line in lines[1:]]
    assert [r[0] for r in rows] == ["-9", "-7", "-5", "-3", "-1", "1", "3", "5", "7", "9"]
    for c_str, plus, minus in rows:
        c = int(c_str)
        assert int(plus) == (1 if c >= 3 else 0)
        assert int(minus) == (-1 if c <= -3 else 0)


QUADRIC_FILE_TEXT = """\
[manifold]
name = quadric
b1 = 0
bplus = 1
bminus = 1
euler = 4
signature = 0

[intersection_form]
0 1
1 0

[w2]
0 0

[torsion]
tors2_order = 1

[kahler]
canonical_class = -2,-2
ns_basis = 1,0
ns_basis = 0,1
effective_cone = 1,0
effective_cone = 0,1
pg_zero = true
kahler_ray = 1,1

[psc]
psc_ray = 1,1
"""


def test_sw_table_rank_two_box(tmp_path, capsys):
    path = tmp_path / "quadric.manifold"
    path.write_text(QUADRIC_FILE_TEXT, encoding="utf-8")
    code, out, _ = run(capsys, ["validate", str(path)])
    assert (code, out) == (0, "ok: quadric: all invariants satisfied\n")
    code, out, _ = run(capsys, ["sw-table", str(path), "--cmin=-2", "--cmax=2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c\tsw_plus\tsw_minus"
    rows = {line.split("\t")[0]: line.split("\t")[1:] for line in lines[1:]}
    assert len(rows) == 9  # even coordinates in [-2, 2]^2
    assert rows["2,2"] == ["1", "0"]
    assert rows["-2,-2"] == ["0", "-1"]
    assert rows["0,0"] == ["0", "0"]
    assert rows["-2,2"] == ["0", "0"]


def test_sw_table_needs_facts(tmp_path, capsys):
    stripped = P2_FILE_TEXT.split("[kahler]")[0]
    path = tmp_path / "bare.manifold"
    path.write_text(stripped, encoding="utf-8")
    code, _, err = run(capsys, ["sw-table", str(path), "--cmin=-3", "--cmax=3"])
    assert code == 2
    assert "neither" in err


def test_sw_table_json(p2_file, capsys):
    code, out, _ = run(
        capsys, ["sw-table", str(p2_file), "--cmin=-3", "--cmax=3", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "sw_table"
    assert payload["rows"][0] == {"c": "-3", "sw_plus": 0, "sw_minus": -1}
    assert payload["rows"][-1] == {"c": "3", "sw_plus": 1, "sw_minus": 0}


def test_sw_table_undetermined_entries(p2_file, capsys, monkeypatch):
    # No demo file has an undecidable row, so stand in a table with one.
    monkeypatch.setattr(
        "swcalc.cli.sw_table", lambda *args, **kwargs: [SWRow((1,), None, 0)]
    )
    code, out, _ = run(capsys, ["sw-table", str(p2_file), "--cmin=1", "--cmax=1"])
    assert (code, out) == (0, "c\tsw_plus\tsw_minus\n1\tundetermined\t0\n")
    argv = ["sw-table", str(p2_file), "--cmin=1", "--cmax=1", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["rows"] == [{"c": "1", "sw_plus": None, "sw_minus": 0}]


def test_strata_plantiko(p2_file, capsys):
    code, out, _ = run(capsys, ["strata", str(p2_file), "--p1=-3", "--c1=4"])
    assert code == 0
    assert out == "l\tp1\tdim\n0\t-3\t6\n1\t1\t4\n2\t5\t2\n3\t9\t0\n"


def test_chamber_command(p2_file, capsys):
    code, out, _ = run(capsys, ["chamber", str(p2_file), "--c=5", "--h=1"])
    assert code == 0
    assert out == "chamber = C_minus\nc_good = true\n"
    code, out, _ = run(capsys, ["chamber", str(p2_file), "--c=5", "--h=1", "--b=5"])
    assert code == 0
    assert out == "chamber = on_wall\nc_good = false\n"


def test_chamber_component_sign(p2_file, capsys):
    code, out, _ = run(
        capsys, ["chamber", str(p2_file), "--c=5", "--h=1", "--component-sign=-1"]
    )
    assert code == 0
    assert out.splitlines()[0] == "chamber = C_plus"
    code, out, err = run(
        capsys, ["chamber", str(p2_file), "--c=5", "--h=1", "--component-sign=2"]
    )
    assert (code, out, err) == (2, "", "error: component_sign must be +1 or -1, got 2\n")


def test_stability_commands(capsys):
    code, out, _ = run(capsys, ["stability", "slope", "--degree=-3", "--rank=2"])
    assert (code, out) == (0, "slope = -3/2\n")
    code, out, _ = run(
        capsys,
        ["stability", "pair-rank2", "--phi=nonzero", "--mu-div=1", "--mu-e=3/2"],
    )
    assert (code, out) == (0, "status = stable\n")
    code, out, _ = run(
        capsys, ["stability", "rho-interval", "--m-under=1/2", "--m-over=1"]
    )
    assert (code, out) == (0, "interval = (1/2, 1)\n")
    code, out, _ = run(
        capsys, ["stability", "rho-interval", "--m-under=1", "--m-over=1"]
    )
    assert (code, out) == (0, "interval = empty\n")
    code, out, _ = run(capsys, ["stability", "poly-compare", "--p=0,0,1", "--q=0,100"])
    assert (code, out) == (0, "order = greater\n")
    code, out, _ = run(
        capsys,
        ["stability", "defect", "--p-e=0,1,1", "--rk-e=2", "--p-ker=0,0,1/2", "--rk-ker=1"],
    )
    assert (code, out) == (0, "defect_coeffs = 0,1\n")
    code, out, _ = run(
        capsys,
        [
            "stability", "semistable", "--rk-e=2", "--p-e=0,1,1", "--epsilon-iso",
            "--kermax=1:0,0,1/2", "--subsheaf=1:1,0,1/4",
        ],
    )
    assert (code, out) == (0, "semistable = true\n")
    code, _, err = run(
        capsys, ["stability", "semistable", "--rk-e=2", "--p-e=0,1", "--epsilon-iso"]
    )
    assert code == 2
    assert "kernel" in err
    code, out, err = run(
        capsys, ["stability", "semistable", "--rk-e=2", "--p-e=0,1", "--subsheaf=1"]
    )
    assert (code, out, err) == (2, "", "error: expected 'rank:c0,c1,...', got '1'\n")


def test_missing_file_is_a_parse_error(capsys):
    code, _, err = run(capsys, ["validate", "/nonexistent/path.manifold"])
    assert code == 3
    assert err.startswith("parse error:")


def test_byte_identical_reruns(p2_file, capsys):
    commands = [
        ["validate", str(p2_file), "--echo"],
        ["dim", str(p2_file), "--c=3"],
        ["sw-table", str(p2_file), "--cmin=-9", "--cmax=9"],
        ["sw-table", str(p2_file), "--cmin=-9", "--cmax=9", "--format", "json"],
        ["strata", str(p2_file), "--p1=-3", "--c1=4"],
        ["chamber", str(p2_file), "--c=5", "--h=1"],
    ]
    for argv in commands:
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second
        assert first[1].encode("utf-8") == second[1].encode("utf-8")


@pytest.mark.parametrize(
    "case", GOLDEN, ids=[" ".join(case["argv"]).replace("demos/", "") for case in GOLDEN]
)
def test_golden_output_on_demo_files(case, capsys):
    argv = [str(ROOT / arg) if arg.startswith("demos/") else arg for arg in case["argv"]]
    code, out, _ = run(capsys, argv)
    assert code == case["exit"]
    assert out.encode("utf-8") == case["stdout"].encode("utf-8")


@pytest.mark.parametrize(
    "spelling, codes",
    [
        (" 1, 2 ", (2, 2, 2)),
        ("1/2", (2, 0, 0)),
        ("-3", (0, 0, 0)),
        ("1/0", (2, 2, 2)),
        ("", (2, 2, 2)),
        ("1,,2", (2, 2, 2)),
        ("x", (2, 2, 2)),
    ],
)
def test_vector_spellings_exit_codes(p2_file, capsys, spelling, codes):
    # An integer vector, a rational vector and a rational scalar, each
    # given the same spelling; malformed values are domain errors.
    commands = (
        ["dim", str(p2_file), f"--c={spelling}"],
        ["chamber", str(p2_file), "--c=5", f"--h={spelling}"],
        ["stability", "slope", f"--degree={spelling}", "--rank=2"],
    )
    for argv, expected in zip(commands, codes):
        code, out, err = run(capsys, argv)
        assert code == expected, argv
        assert (out == "") == (code == 2)
        assert err.startswith("error: ") == (code == 2)
