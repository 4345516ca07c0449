"""Command line interface: file ingestion, command dispatch, and
deterministic report emission.

Exit codes: 0 success, 2 domain error (violated precondition or invalid
data), 3 parse error. Output is byte-identical across runs on the same
input: no timestamps, no locale dependence, rationals rendered reduced
as p/q with positive denominator. Vectors on the command line are
comma-separated integers or rationals in the fixed H^2 basis; use the
``--option=value`` spelling when a vector starts with a minus sign.

Each command states its result once, as a field map, and one renderer
prints it: as ``key = value`` lines, a tab-separated table, or with
``--format json`` as a JSON object holding the same values.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .chambers import (
    Chamber,
    PeriodRay,
    classify_chamber_oriented,
    require_one_component,
    wall_vector,
)
from .errors import DomainError, ManifoldFileError
from .kahler import SWRow, sw_table, validate_kahler_facts
from .manifoldfile import (
    ManifoldData,
    _fmt,
    emit_manifold_text,
    load_manifold_file,
    parse_fraction,
    parse_fraction_vector,
    parse_int,
    parse_int_vector,
)
from .stability import (
    HilbertPoly,
    PairProfile,
    Stability,
    framing_defect,
    oriented_pair_status_rank2,
    oriented_sheaf_semistable,
    poly_compare,
    rho_interval,
    slope,
)
from .topology import (
    characteristic_range,
    expected_dim_abelian,
    expected_dim_pu2,
    uhlenbeck_strata,
    validate_topology,
)


def _parse_poly(text: str) -> HilbertPoly:
    return HilbertPoly(parse_fraction_vector(text))


def _parse_ranked_poly(text: str) -> tuple[int, HilbertPoly]:
    rank_part, sep, coeff_part = text.partition(":")
    if not sep:
        raise DomainError(f"expected 'rank:c0,c1,...', got {text!r}")
    return parse_int(rank_part), _parse_poly(coeff_part)


def _json_value(value):
    return _fmt(value) if isinstance(value, (Fraction, tuple)) else value


def _emit(args, command: str, fields: dict, text_lines: Optional[list] = None) -> None:
    """Print a field map as JSON, or as ``text_lines`` (default: one
    ``key = value`` line per field)."""
    if args.format == "json":
        payload = {key: _json_value(value) for key, value in fields.items()}
        print(json.dumps({"command": command, **payload}, sort_keys=True, indent=2))
    else:
        if text_lines is None:
            text_lines = [f"{key} = {_fmt(value)}" for key, value in fields.items()]
        print("\n".join(text_lines))


def _emit_rows(args, command: str, header: tuple, rows: list) -> None:
    """Print a table as JSON rows keyed by the header, or as tab-separated text."""
    if args.format == "json":
        _emit(args, command, {"rows": [dict(zip(header, map(_json_value, row))) for row in rows]})
    else:
        print("\n".join("\t".join(map(_fmt, row)) for row in (header, *rows)))


def _load(path) -> ManifoldData:
    data = load_manifold_file(path)
    violations = validate_topology(data.topology)
    if violations:
        raise DomainError("manifold data failed validation: " + "; ".join(violations))
    return data


def cmd_validate(args) -> int:
    data = load_manifold_file(args.file)
    m = data.topology
    violations = validate_topology(m)
    if data.kahler is not None:
        violations.extend(validate_kahler_facts(m, data.kahler))
    if data.psc_ray is not None:
        try:
            wall_vector(m, data.psc_ray)
        except DomainError as problem:
            violations.append(f"psc_ray: {problem}")
        if not violations and m.bplus == 1 and data.kahler is not None:
            # Hyperbola components exist: a valid bplus = 1 form and valid rays.
            try:
                require_one_component(m, data.psc_ray, data.kahler.kahler_ray)
            except DomainError as problem:
                violations.append(str(problem))
    ok = not violations
    if ok and args.echo:
        sys.stdout.write(emit_manifold_text(data))
        return 0
    lines = [f"violation: {v}" for v in violations]
    lines = lines or [f"ok: {m.name}: all invariants satisfied"]
    _emit(args, "validate", {"name": m.name, "ok": ok, "violations": violations}, lines)
    return 0 if ok else 2


def cmd_dim(args) -> int:
    data = _load(args.file)
    m = data.topology
    if args.pu2:
        if args.p1 is None or args.c1 is None:
            raise DomainError("--pu2 needs both --p1 and --c1")
        c1 = parse_int_vector(args.c1)
        fields = {"p1": args.p1, "c1": c1, "chi": expected_dim_pu2(m, args.p1, c1)}
    else:
        if args.c is None:
            raise DomainError("supply --c for the abelian dimension or --pu2")
        c = parse_int_vector(args.c)
        fields = {"c": c, "w_c": expected_dim_abelian(m, c)}
    _emit(args, "dim", fields)
    return 0


def cmd_sw_table(args) -> int:
    data = _load(args.file)
    m = data.topology
    c_list = characteristic_range(m, args.cmin, args.cmax)
    _emit_rows(args, "sw_table", SWRow._fields, sw_table(m, c_list, data.psc_ray, data.kahler))
    return 0


def cmd_strata(args) -> int:
    data = _load(args.file)
    strata = uhlenbeck_strata(data.topology, args.p1, parse_int_vector(args.c1), args.max_level)
    _emit_rows(args, "strata", ("l", "p1", "dim"), strata)
    return 0


def cmd_chamber(args) -> int:
    data = _load(args.file)
    m = data.topology
    c = parse_int_vector(args.c)
    h = parse_fraction_vector(args.h)
    b = parse_fraction_vector(args.b) if args.b is not None else (0,) * m.b2
    chamber = classify_chamber_oriented(m, c, PeriodRay(h, args.component_sign), b)
    _emit(args, "chamber", {"chamber": chamber.value, "c_good": chamber is not Chamber.ON_WALL})
    return 0


def cmd_stability_slope(args) -> int:
    _emit(args, "slope", {"slope": slope(parse_fraction(args.degree), args.rank)})
    return 0


def cmd_stability_pair(args) -> int:
    phi_zero = args.phi == "zero"
    mu_div = parse_fraction(args.mu_div) if args.mu_div is not None else None
    status = oriented_pair_status_rank2(
        phi_zero, Stability(args.e_stability), mu_div, parse_fraction(args.mu_e)
    )
    _emit(args, "pair_rank2", {"status": status.value})
    return 0


def cmd_stability_rho(args) -> int:
    interval = rho_interval(parse_fraction(args.m_under), parse_fraction(args.m_over))
    if interval is None:
        value, text = None, "empty"
    else:
        lo, hi = interval
        value, text = [str(lo), str(hi)], f"({lo}, {hi})"
    _emit(args, "rho_interval", {"interval": value}, [f"interval = {text}"])
    return 0


def cmd_stability_poly_compare(args) -> int:
    order = poly_compare(_parse_poly(args.p), _parse_poly(args.q))
    _emit(args, "poly_compare", {"order": order.value})
    return 0


def cmd_stability_defect(args) -> int:
    defect = framing_defect(
        _parse_poly(args.p_e), args.rk_e, _parse_poly(args.p_ker), args.rk_ker
    )
    coeffs = [str(v) for v in defect.coeffs]
    text = _fmt(defect.coeffs) or "0"
    _emit(args, "framing_defect", {"coeffs": coeffs}, [f"defect_coeffs = {text}"])
    return 0


def cmd_stability_semistable(args) -> int:
    kermax = _parse_ranked_poly(args.kermax) if args.kermax is not None else None
    subsheaves = tuple(_parse_ranked_poly(text) for text in args.subsheaf or [])
    profile = PairProfile(
        rank=args.rk_e,
        hilbert=_parse_poly(args.p_e),
        phi_injective=args.phi_injective,
        epsilon_iso=args.epsilon_iso,
        kermax=kermax,
        subsheaves=subsheaves,
    )
    _emit(args, "semistable", {"semistable": oriented_sheaf_semistable(profile)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swcalc",
        description=(
            "Exact-arithmetic Seiberg-Witten invariant bookkeeping for closed "
            "oriented 4-manifolds described by a manifold file."
        ),
        epilog=(
            "Vectors are comma-separated integers or rationals p/q in the fixed "
            "H^2 basis (e.g. --c=3 on a rank-one lattice, --h=1,1/2 on rank two); "
            "write --option=value when a vector starts with a minus sign. "
            "Polynomial coefficients are listed ascending. Exit codes: 0 ok, "
            "2 domain error, 3 parse error."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check every data invariant of a manifold file")
    p.add_argument("file")
    p.add_argument("--echo", action="store_true", help="emit the canonical file form")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("dim", help="expected moduli dimensions")
    p.add_argument("file")
    p.add_argument("--c", help="characteristic element, e.g. --c=3 or --c=1,0")
    p.add_argument("--pu2", action="store_true", help="PU(2) index instead of abelian")
    p.add_argument("--p1", type=int, help="first Pontryagin number (with --pu2)")
    p.add_argument("--c1", help="determinant Chern class (with --pu2)")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("sw-table", help="invariant pair table over a range of c")
    p.add_argument("file")
    p.add_argument("--cmin", type=int, required=True)
    p.add_argument("--cmax", type=int, required=True)
    p.set_defaults(func=cmd_sw_table)

    p = sub.add_parser("strata", help="ideal-monopole strata of the compactification")
    p.add_argument("file")
    p.add_argument("--p1", type=int, required=True)
    p.add_argument("--c1", required=True)
    p.add_argument("--max-level", type=int)
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("chamber", help="chamber classification for bplus = 1")
    p.add_argument("file")
    p.add_argument("--c", required=True)
    p.add_argument("--h", required=True, help="period ray, e.g. --h=1 or --h=1,1/2")
    p.add_argument("--b", help="twisting class, default 0")
    p.add_argument("--component-sign", type=int, default=1)
    p.set_defaults(func=cmd_chamber)

    p = sub.add_parser("stability", help="exact stability predicates")
    stab = p.add_subparsers(dest="stability_command", required=True)

    q = stab.add_parser("slope", help="degree / rank")
    q.add_argument("--degree", required=True)
    q.add_argument("--rank", type=int, required=True)
    q.set_defaults(func=cmd_stability_slope)

    q = stab.add_parser("pair-rank2", help="rank-2 oriented pair status")
    q.add_argument("--phi", choices=("zero", "nonzero"), required=True)
    q.add_argument("--e-stability", choices=tuple(s.value for s in Stability), default="neither")
    q.add_argument("--mu-div")
    q.add_argument("--mu-e", required=True)
    q.set_defaults(func=cmd_stability_pair)

    q = stab.add_parser("rho-interval", help="parameter-stability interval")
    q.add_argument("--m-under", required=True)
    q.add_argument("--m-over", required=True)
    q.set_defaults(func=cmd_stability_rho)

    q = stab.add_parser("poly-compare", help="eventual-dominance order")
    q.add_argument("--p", required=True, help="ascending coefficients, e.g. --p=0,1")
    q.add_argument("--q", required=True)
    q.set_defaults(func=cmd_stability_poly_compare)

    q = stab.add_parser("defect", help="framing defect polynomial")
    q.add_argument("--p-e", required=True)
    q.add_argument("--rk-e", type=int, required=True)
    q.add_argument("--p-ker", required=True)
    q.add_argument("--rk-ker", type=int, required=True)
    q.set_defaults(func=cmd_stability_defect)

    q = stab.add_parser("semistable", help="oriented sheaf pair semistability")
    q.add_argument("--rk-e", type=int, required=True)
    q.add_argument("--p-e", required=True)
    q.add_argument("--phi-injective", action="store_true")
    q.add_argument("--epsilon-iso", action="store_true")
    q.add_argument("--kermax", help="rank:coeffs of the maximal kernel")
    q.add_argument("--subsheaf", action="append", help="rank:coeffs witness, repeatable")
    q.set_defaults(func=cmd_stability_semistable)

    for leaf in [*sub.choices.values(), *stab.choices.values()]:
        if leaf.get_default("func"):  # commands only; added last, so -h lists it last
            leaf.add_argument(
                "--format",
                choices=("text", "json"),
                default="text",
                help="output as plain text (default) or a JSON tree with the same values",
            )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ManifoldFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"parse error: cannot read input: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # DomainError is a ValueError; both are exit 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    raise SystemExit(main())
