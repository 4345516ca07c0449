"""The package exports its names lazily, and each CLI command loads only
the modules it runs.

``import swcalc`` loads no submodule; a name loads its home module on
first lookup. A command imports what it calls when it runs, so a child
process that runs one command reports exactly the swcalc modules that
command needs, and ``json`` only under ``--format json``. These are
module sets, not timings.
"""

from __future__ import annotations

import ast
import sys

import pytest

import swcalc
from conftest import P2_FILE_TEXT, run_python
from swcalc import Stability
from swcalc.cli import build_parser

# The export list, in its published order.
EXPORTS = [
    "Chamber",
    "DimensionMismatchError",
    "DomainError",
    "ExtForm",
    "HilbertPoly",
    "InvalidTopologyError",
    "KahlerFacts",
    "ManifoldData",
    "ManifoldFileError",
    "ManifoldTopology",
    "Ordering",
    "OrientationData",
    "PairProfile",
    "PeriodRay",
    "SWRow",
    "SolvabilitySide",
    "Stability",
    "UhlenbeckStratum",
    "abelian_solvability_side",
    "c2_spinor_bundle",
    "characteristic_range",
    "classify_chamber_oriented",
    "cup_form",
    "douady_nonempty",
    "emit_manifold_text",
    "expected_dim_abelian",
    "expected_dim_pu2",
    "framing_defect",
    "is_c_good",
    "is_characteristic",
    "load_manifold_file",
    "oriented_pair_status_rank2",
    "oriented_sheaf_semistable",
    "parse_manifold_text",
    "poly_compare",
    "require_characteristic",
    "rho_interval",
    "slope",
    "spin_sp1_admissible",
    "spin_u2_admissible",
    "spinc_count_per_chern",
    "spinor_sup_bound",
    "sw_pg0_invariants",
    "sw_table",
    "triple_cup_from_entries",
    "uhlenbeck_strata",
    "validate_kahler_facts",
    "validate_topology",
    "wall_crossing_delta",
    "wedge",
    "wedge_power",
]

# What every command loads: the CLI, the file parsers and what they need.
BASE = [
    "swcalc",
    "swcalc.cli",
    "swcalc.errors",
    "swcalc.linalg",
    "swcalc.manifoldfile",
    "swcalc.topology",
]
GEOMETRY = ["swcalc.chambers", "swcalc.kahler"]

# Runs one command with its stdout discarded, then prints the exit code,
# the swcalc modules loaded and whether json is loaded.
CHILD = """\
import contextlib, io, sys
import swcalc.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = swcalc.cli.main(sys.argv[1:])
print(repr((code, sorted(m for m in sys.modules if m.startswith("swcalc")), "json" in sys.modules)))
"""


def child_stdout(*args: str) -> str:
    result = run_python(*args)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_all_keeps_its_names_and_order():
    assert swcalc.__all__ == EXPORTS


def test_every_export_is_its_home_modules_object():
    # The home is where the object was defined, so a table entry naming a
    # module that merely imports it is caught too.
    wrong = []
    for name in swcalc.__all__:
        value = getattr(swcalc, name)
        home = sys.modules[value.__module__]
        if getattr(home, name) is not value or f"swcalc.{swcalc._HOME[name]}" != home.__name__:
            wrong.append(name)
    assert wrong == []


def test_dir_lists_every_export():
    assert set(swcalc.__all__) <= set(dir(swcalc))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from swcalc import *", namespace)
    assert [name for name in EXPORTS if namespace.get(name) is not getattr(swcalc, name)] == []


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'swcalc' has no attribute 'no_such_name'$"):
        swcalc.no_such_name  # noqa: B018


def test_bare_import_loads_no_submodule_and_resolves_them_on_use():
    out = child_stdout(
        "-c",
        "import sys, swcalc\n"
        "print(sorted(m for m in sys.modules if m.startswith('swcalc')))\n"
        "print(swcalc.kahler.__name__, swcalc.linalg.__name__)",
    )
    assert out == "['swcalc']\nswcalc.kahler swcalc.linalg\n"


def test_stability_loads_no_lattice_module():
    # Its scalar checks and Scalar come from errors, not topology or linalg.
    out = child_stdout(
        "-c",
        "import sys, swcalc.stability\n"
        "print(sorted(m for m in sys.modules if m.startswith('swcalc')))",
    )
    assert out == "['swcalc', 'swcalc.errors', 'swcalc.stability']\n"


@pytest.fixture(scope="module")
def plain_file(tmp_path_factory):
    # P2 without its [kahler] and [psc] sections.
    path = tmp_path_factory.mktemp("plain") / "plain.manifold"
    path.write_text(P2_FILE_TEXT.split("[kahler]")[0], encoding="utf-8")
    return str(path)


P2 = "demos/p2.manifold"
STABILITY = ["swcalc.stability"]
COMMANDS = [
    # (argv, modules beyond BASE, json loaded); "PLAIN" is a file without
    # [kahler] or [psc], on which no command needs chambers or kahler.
    (["validate", "PLAIN"], [], False),
    (["validate", P2], GEOMETRY, False),
    (["dim", "PLAIN", "--c=3"], [], False),
    (["dim", "PLAIN", "--c=3", "--format", "json"], [], True),
    (["dim", P2, "--pu2", "--p1=-3", "--c1=4"], GEOMETRY, False),
    (["sw-table", P2, "--cmin=-3", "--cmax=3"], GEOMETRY, False),
    (["sw-table", P2, "--cmin=-3", "--cmax=3", "--format", "json"], GEOMETRY, True),
    (["strata", "PLAIN", "--p1=-3", "--c1=4"], [], False),
    (["chamber", "PLAIN", "--c=5", "--h=1"], ["swcalc.chambers"], False),
    (["stability", "slope", "--degree=3", "--rank=2"], STABILITY, False),
    (["stability", "pair-rank2", "--phi=zero", "--mu-e=1", "--format=json"], STABILITY, True),
    (["stability", "rho-interval", "--m-under=0", "--m-over=1"], STABILITY, False),
    (["stability", "poly-compare", "--p=0,1", "--q=1"], STABILITY, False),
    (["stability", "defect", "--p-e=1,1", "--rk-e=2", "--p-ker=1", "--rk-ker=1"], STABILITY, False),
    (["stability", "semistable", "--rk-e=2", "--p-e=1,1"], STABILITY, False),
]


@pytest.mark.parametrize(
    "argv, extra, json_loaded", COMMANDS, ids=[" ".join(argv) for argv, _, _ in COMMANDS]
)
def test_each_command_loads_only_what_it_runs(plain_file, argv, extra, json_loaded):
    argv = [plain_file if arg == "PLAIN" else arg for arg in argv]
    code, modules, has_json = ast.literal_eval(child_stdout("-c", CHILD, *argv))
    assert code == 0
    assert "swcalc.extalg" not in modules
    assert modules == sorted(BASE + extra)
    assert has_json is json_loaded


def test_e_stability_choices_are_the_stability_values():
    # build_parser spells them out, so that parsing loads no stability module.
    parser = build_parser()
    stability = parser._subparsers._group_actions[0].choices["stability"]
    pair = stability._subparsers._group_actions[0].choices["pair-rank2"]
    (action,) = [a for a in pair._actions if a.dest == "e_stability"]
    assert action.choices == tuple(s.value for s in Stability)
