"""Structured text format describing one manifold per file.

A file has bracketed sections. ``[manifold]`` and ``[torsion]`` hold
``key = value`` lines; ``[intersection_form]`` holds the matrix
row-major, one whitespace-separated row per line; ``[w2]`` holds the
0/1 coordinate vector; an optional ``[triple_cup]`` holds sparse
``i j k value`` lines (1-based, the antisymmetric mirror is implied).
Optional ``[kahler]`` and ``[psc]`` sections carry the geometric facts;
``ns_basis`` and ``effective_cone`` keys repeat, one row each. Vector
values are comma-separated integers or rationals ``p/q``. Lines
starting with ``#`` are comments. Files are read as UTF-8.

Parsing reports the first offending line and column with exit-code-3
semantics; the emitter writes a canonical form that re-parses to equal
data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .chambers import PeriodRay
from .errors import DomainError, ManifoldFileError
from .kahler import KahlerFacts
from .topology import ManifoldTopology, triple_cup_from_entries

_TOKEN = re.compile(r"\S+")

# The key = value sections and the keys each allows, in emission order.
_KEYS = {
    "manifold": ("name", "b1", "bplus", "bminus", "euler", "signature"),
    "torsion": ("tors2_order",),
    "kahler": (
        "canonical_class",
        "ns_basis",
        "effective_cone",
        "pg_zero",
        "kahler_ray",
        "kahler_component_sign",
    ),
    "psc": ("psc_ray", "psc_component_sign"),
}
_DATA_SECTIONS = {"intersection_form", "w2", "triple_cup"}
_REQUIRED_SECTIONS = ("manifold", "intersection_form", "w2", "torsion")
_REPEATABLE = {"ns_basis", "effective_cone"}


@dataclass(frozen=True)
class ManifoldData:
    """Everything a file can describe: topology plus optional facts."""

    topology: ManifoldTopology
    kahler: Optional[KahlerFacts] = None
    psc_ray: Optional[PeriodRay] = None


def parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"expected a rational p/q, got {text!r}") from None


def parse_int_vector(text: str) -> tuple[int, ...]:
    return tuple(parse_int(part) for part in text.split(","))


def parse_fraction_vector(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_fraction(part) for part in text.split(","))


def _parse(parse, text: str, line_no: int, col: int):
    """Apply one of the text parsers above, reporting its error at the
    given position."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ManifoldFileError(str(exc), line_no, col) from None


def _parse_bool(value: str, line_no: int, col: int) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise ManifoldFileError(f"expected true or false, got {value!r}", line_no, col)


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.kv: dict[str, dict[str, tuple[str, int, int]]] = {}
        self.kv_rows: dict[str, dict[str, list[tuple[str, int, int]]]] = {}
        self.matrix_rows: list[tuple[list[int], int]] = []
        self.w2_tokens: list[int] = []
        self.cup_entries: list[tuple[int, int, int, int]] = []
        self.section_lines: dict[str, int] = {}

    def parse(self) -> ManifoldData:
        section = None
        for line_no, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            stripped = line.strip()
            if stripped.startswith("["):
                if not stripped.endswith("]"):
                    raise ManifoldFileError(
                        "unterminated section header", line_no, raw.index("[") + 1
                    )
                section = stripped[1:-1].strip()
                if section not in _KEYS and section not in _DATA_SECTIONS:
                    raise ManifoldFileError(
                        f"unknown section [{section}]", line_no, raw.index("[") + 1
                    )
                if section in self.section_lines:
                    raise ManifoldFileError(
                        f"duplicate section [{section}]", line_no, raw.index("[") + 1
                    )
                self.section_lines[section] = line_no
                continue
            if section is None:
                raise ManifoldFileError(
                    "content before the first section header", line_no, 1
                )
            if section in _KEYS:
                self._kv_line(section, raw, line, line_no)
            else:
                self._data_line(section, raw, line, line_no)
        return self._build()

    def _kv_line(self, section: str, raw: str, line: str, line_no: int) -> None:
        if "=" not in line:
            raise ManifoldFileError(
                f"expected 'key = value' in [{section}]", line_no, 1
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        col = raw.index("=") + 2
        if key not in _KEYS[section]:
            raise ManifoldFileError(
                f"unknown key {key!r} in [{section}]", line_no, 1
            )
        if key in _REPEATABLE:
            self.kv_rows.setdefault(section, {}).setdefault(key, []).append(
                (value, line_no, col)
            )
            return
        if key in self.kv.get(section, {}):
            raise ManifoldFileError(
                f"duplicate key {key!r} in [{section}]", line_no, 1
            )
        self.kv.setdefault(section, {})[key] = (value, line_no, col)

    def _data_line(self, section: str, raw: str, line: str, line_no: int) -> None:
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]
        if section == "intersection_form":
            row = [_parse(parse_int, tok, line_no, col) for tok, col in tokens]
            self.matrix_rows.append((row, line_no))
        elif section == "w2":
            for tok, col in tokens:
                value = _parse(parse_int, tok, line_no, col)
                if value not in (0, 1):
                    raise ManifoldFileError(
                        f"w2 entries must be 0 or 1, got {value}", line_no, col
                    )
                self.w2_tokens.append(value)
        else:
            if len(tokens) != 4:
                raise ManifoldFileError(
                    "triple cup entries are 'i j k value'", line_no, tokens[0][1]
                )
            i, j, k, v = (_parse(parse_int, tok, line_no, col) for tok, col in tokens)
            self.cup_entries.append((i, j, k, v))

    def _require(self, section: str, key: str) -> tuple[str, int, int]:
        try:
            return self.kv[section][key]
        except KeyError:
            line = self.section_lines.get(section, len(self.lines))
            raise ManifoldFileError(
                f"missing key {key!r} in [{section}]", line, 1
            )

    def _build(self) -> ManifoldData:
        for section in _REQUIRED_SECTIONS:
            if section not in self.section_lines:
                raise ManifoldFileError(
                    f"missing required section [{section}]", len(self.lines) or 1, 1
                )
        name = self._require("manifold", "name")[0]
        ints = {
            key: _parse(parse_int, *self._require("manifold", key))
            for key in _KEYS["manifold"][1:]
        }
        tors2 = _parse(parse_int, *self._require("torsion", "tors2_order"))
        n = len(self.matrix_rows)
        for row, line_no in self.matrix_rows:
            if len(row) != n:
                raise ManifoldFileError(
                    f"matrix row has {len(row)} entries, expected {n} "
                    "(the intersection form must be square)",
                    line_no,
                    1,
                )
        matrix = tuple(tuple(row) for row, _ in self.matrix_rows)
        if len(self.w2_tokens) != n:
            line = self.section_lines.get("w2", 1)
            raise ManifoldFileError(
                f"w2 has {len(self.w2_tokens)} entries, expected b2 = {n}", line, 1
            )
        cup = ()
        if self.cup_entries:
            cup_line = self.section_lines.get("triple_cup", 1)
            try:
                cup = triple_cup_from_entries(ints["b1"], n, self.cup_entries)
            except ValueError as exc:
                raise ManifoldFileError(str(exc), cup_line, 1)
        try:
            topology = ManifoldTopology(
                name=name,
                b1=ints["b1"],
                bplus=ints["bplus"],
                bminus=ints["bminus"],
                euler=ints["euler"],
                signature=ints["signature"],
                intersection_form=matrix,
                w2=tuple(self.w2_tokens),
                tors2_order=tors2,
                triple_cup=cup,
            )
        except ValueError as exc:
            raise ManifoldFileError(str(exc), self.section_lines.get("manifold", 1), 1)
        return ManifoldData(
            topology=topology,
            kahler=self._build_kahler(),
            psc_ray=self._build_psc(),
        )

    def _build_kahler(self) -> Optional[KahlerFacts]:
        if "kahler" not in self.section_lines:
            return None
        canonical = _parse(parse_int_vector, *self._require("kahler", "canonical_class"))
        rows = self.kv_rows.get("kahler", {})
        ns_rows = tuple(
            _parse(parse_int_vector, value, line, col)
            for value, line, col in rows.get("ns_basis", [])
        )
        cone_rows = tuple(
            _parse(parse_fraction_vector, value, line, col)
            for value, line, col in rows.get("effective_cone", [])
        )
        pg_zero = _parse_bool(*self._require("kahler", "pg_zero"))
        return KahlerFacts(
            canonical_class=canonical,
            ns_basis=ns_rows,
            effective_cone=cone_rows,
            pg_zero=pg_zero,
            kahler_ray=self._ray("kahler", "kahler_ray", "kahler_component_sign"),
        )

    def _build_psc(self) -> Optional[PeriodRay]:
        if "psc" not in self.section_lines:
            return None
        return self._ray("psc", "psc_ray", "psc_component_sign")

    def _ray(self, section: str, ray_key: str, sign_key: str) -> PeriodRay:
        h = _parse(parse_fraction_vector, *self._require(section, ray_key))
        sign_entry = self.kv[section].get(sign_key)
        sign = _parse(parse_int, *sign_entry) if sign_entry else 1
        try:
            return PeriodRay(h, sign)
        except ValueError as exc:
            raise ManifoldFileError(str(exc), *sign_entry[1:])


def parse_manifold_text(text: str) -> ManifoldData:
    return _Parser(text).parse()


def load_manifold_file(path) -> ManifoldData:
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ManifoldFileError("input is not valid UTF-8", line) from None
    return parse_manifold_text(text)


def _fmt_vec(values) -> str:
    return ",".join(str(v) for v in values)


def _ray_lines(ray: PeriodRay, ray_key: str, sign_key: str) -> list[str]:
    lines = [f"{ray_key} = {_fmt_vec(ray.h)}"]
    if ray.component_sign != 1:
        lines.append(f"{sign_key} = {ray.component_sign}")
    return lines


def emit_manifold_text(data: ManifoldData) -> str:
    """Canonical serialization; re-parsing yields equal ManifoldData. A
    name holding '#', a line break or outer whitespace raises DomainError."""
    m = data.topology
    if "#" in m.name or "".join(m.name.splitlines()) != m.name or m.name != m.name.strip():
        raise DomainError(
            f"name {m.name!r} does not re-parse: it must hold no '#' or line "
            "break and neither start nor end with whitespace"
        )
    out = []
    out.append("[manifold]")
    out.extend(f"{key} = {getattr(m, key)}" for key in _KEYS["manifold"])
    out.append("")
    out.append("[intersection_form]")
    for row in m.intersection_form:
        out.append(" ".join(str(v) for v in row))
    out.append("")
    out.append("[w2]")
    out.append(" ".join(str(v) for v in m.w2))
    out.append("")
    out.append("[torsion]")
    out.append(f"tors2_order = {m.tors2_order}")
    cup_lines = []
    for i in range(m.b1):
        for j in range(i + 1, m.b1):
            for k in range(m.b2):
                if m.triple_cup[i][j][k]:
                    cup_lines.append(f"{i + 1} {j + 1} {k + 1} {m.triple_cup[i][j][k]}")
    if cup_lines:
        out.append("")
        out.append("[triple_cup]")
        out.extend(cup_lines)
    if data.kahler is not None:
        facts = data.kahler
        out.append("")
        out.append("[kahler]")
        out.append(f"canonical_class = {_fmt_vec(facts.canonical_class)}")
        for row in facts.ns_basis:
            out.append(f"ns_basis = {_fmt_vec(row)}")
        for row in facts.effective_cone:
            out.append(f"effective_cone = {_fmt_vec(row)}")
        out.append(f"pg_zero = {'true' if facts.pg_zero else 'false'}")
        out.extend(_ray_lines(facts.kahler_ray, "kahler_ray", "kahler_component_sign"))
    if data.psc_ray is not None:
        out.append("")
        out.append("[psc]")
        out.extend(_ray_lines(data.psc_ray, "psc_ray", "psc_component_sign"))
    return "\n".join(out) + "\n"
