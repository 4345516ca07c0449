"""Checks of swcalc's answers that never call swcalc.

Every table row is decided in the diagonal basis of P2#k(-P2), where
w_c = (c.c + k - 9) / 4 and -K = (3, -1, ..., -1) pairs with c as
3 c_0 + sum c_i. With w_c >= 0 the row is (1, 0) on the positive side of
the wall, (0, -1) on the negative side, and on the wall c.(-K) = 0 the
PSC rule alone leaves it undetermined. The Kahler rule decides the wall
rows: there L = (c + K)/2 has L.(-K) = -K.K/2 < 0, and -K is ample for
k <= 8, so L is not effective and the row is (0, -1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from inputs import Lattice, diag_coords, expected_dim, pair, parse_text

Pair = tuple[Optional[int], Optional[int]]


def row_rule(k: int, c_diag, kahler: bool) -> Pair:
    square = c_diag[0] ** 2 - sum(v * v for v in c_diag[1:])
    if square + k - 9 < 0:
        return (0, 0)
    side = 3 * c_diag[0] + sum(c_diag[1:])
    if side > 0:
        return (1, 0)
    if side < 0 or kahler:
        return (0, -1)
    return (None, None)


def table_ok(lat: Lattice, c_list, rows: list[tuple], kahler: bool) -> bool:
    """rows are (c, sw_plus, sw_minus) in output order; c_list is the
    expected set of c in this lattice's basis."""
    if [tuple(r[0]) for r in rows] != sorted(set(map(tuple, c_list))):
        return False
    return all(
        (plus, minus) == row_rule(lat.k, diag_coords(lat, c), kahler) for c, plus, minus in rows
    )


def _cell(text: str) -> Optional[int]:
    return None if text == "undetermined" else int(text)


def parse_table_stdout(out: str) -> list[tuple]:
    lines = out.splitlines()
    if not lines or lines[0] != "c\tsw_plus\tsw_minus":
        raise ValueError("missing table header")
    rows = []
    for line in lines[1:]:
        c, plus, minus = line.split("\t")
        rows.append((tuple(int(v) for v in c.split(",")), _cell(plus), _cell(minus)))
    return rows


def vec(values) -> str:
    return ",".join(str(v) for v in values)


def dim_stdout(lat: Lattice, c) -> str:
    return f"c = {vec(c)}\nw_c = {expected_dim(lat.form, lat.signature, lat.euler, c)}\n"


def pu2_chi(lat: Lattice, p1: int, c1) -> int:
    num = -3 * p1 + pair(lat.form, c1, c1) - (3 * lat.euler + 4 * lat.signature)
    assert num % 2 == 0, "PU(2) data is inconsistent"
    return num // 2


def pu2_stdout(lat: Lattice, p1: int, c1) -> str:
    return f"p1 = {p1}\nc1 = {vec(c1)}\nchi = {pu2_chi(lat, p1, c1)}\n"


def strata_stdout(lat: Lattice, p1: int, c1) -> str:
    chi = pu2_chi(lat, p1, c1)
    lines = ["l\tp1\tdim"]
    lines += [f"{lvl}\t{p1 + 4 * lvl}\t{chi - 2 * lvl}" for lvl in range(chi // 2 + 1)]
    return "\n".join(lines) + "\n"


def chamber_stdout(lat: Lattice, c, h) -> str:
    s = pair(lat.form, c, h)
    name = "C_plus" if s < 0 else "C_minus" if s > 0 else "on_wall"
    return f"chamber = {name}\nc_good = {'true' if s else 'false'}\n"


def slope_stdout(degree: int, rank: int) -> str:
    return f"slope = {Fraction(degree, rank)}\n"


def rho_stdout(lo: Fraction, hi: Fraction) -> str:
    return f"interval = ({lo}, {hi})\n" if lo < hi else "interval = empty\n"


def poly_compare_stdout(p, q) -> str:
    n = max(len(p), len(q))
    a = list(p) + [0] * (n - len(p))
    b = list(q) + [0] * (n - len(q))
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return f"order = {'less' if x < y else 'greater'}\n"
    return "order = equal\n"


def validate_stdout(name: str) -> str:
    return f"ok: {name}: all invariants satisfied\n"


def echo_ok(original_text: str, echoed: str) -> bool:
    """The echo re-parses to the same data as the file it came from."""
    return parse_text(echoed) == parse_text(original_text)
