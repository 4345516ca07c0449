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

Parsing is one pass, one key store: a single pass over the lines files
every ``key = value`` entry under its key (each key belongs to exactly
one section) and parses data lines token by token; the data is then
built from that store. It reports the first offending line and column
with exit-code-3 semantics; the emitter writes a canonical form that
re-parses to equal data.
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


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def parse_manifold_text(text: str) -> ManifoldData:
    """Parse one manifold file; every refusal is a ManifoldFileError at
    the first offending line and column."""
    lines = text.splitlines()
    headers: dict[str, int] = {}
    entries: dict[str, list[tuple[str, int, int]]] = {}
    rows: dict[str, list[tuple[list[int], int]]] = {s: [] for s in _DATA_SECTIONS}
    section = None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            col = raw.index("[") + 1
            if not stripped.endswith("]"):
                raise ManifoldFileError("unterminated section header", line_no, col)
            section = stripped[1:-1].strip()
            if section not in _KEYS and section not in _DATA_SECTIONS:
                raise ManifoldFileError(f"unknown section [{section}]", line_no, col)
            if section in headers:
                raise ManifoldFileError(f"duplicate section [{section}]", line_no, col)
            headers[section] = line_no
        elif section is None:
            raise ManifoldFileError("content before the first section header", line_no, 1)
        elif section in _KEYS:
            if "=" not in line:
                raise ManifoldFileError(f"expected 'key = value' in [{section}]", line_no, 1)
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _KEYS[section]:
                raise ManifoldFileError(f"unknown key {key!r} in [{section}]", line_no, 1)
            if key in entries and key not in _REPEATABLE:
                raise ManifoldFileError(f"duplicate key {key!r} in [{section}]", line_no, 1)
            entries.setdefault(key, []).append((value.strip(), line_no, raw.index("=") + 2))
        else:
            tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]
            if section == "triple_cup" and len(tokens) != 4:
                raise ManifoldFileError(
                    "triple cup entries are 'i j k value'", line_no, tokens[0][1]
                )
            row = []
            for token, col in tokens:
                row.append(_parse(parse_int, token, line_no, col))
                if section == "w2" and row[-1] not in (0, 1):
                    raise ManifoldFileError(
                        f"w2 entries must be 0 or 1, got {row[-1]}", line_no, col
                    )
            rows[section].append((row, line_no))

    for section in _REQUIRED_SECTIONS:
        if section not in headers:
            raise ManifoldFileError(
                f"missing required section [{section}]", len(lines) or 1, 1
            )

    # Every section named below is present: required, or checked first.
    def need(section, key, parse):
        if key not in entries:
            raise ManifoldFileError(f"missing key {key!r} in [{section}]", headers[section], 1)
        return _parse(parse, *entries[key][0])

    def ray(section):
        h = need(section, f"{section}_ray", parse_fraction_vector)
        sign = entries.get(f"{section}_component_sign")
        try:
            return PeriodRay(h, _parse(parse_int, *sign[0]) if sign else 1)
        except ValueError as exc:  # only a sign entry can be refused
            raise ManifoldFileError(str(exc), *sign[0][1:])

    name = need("manifold", "name", str)
    ints = {key: need("manifold", key, parse_int) for key in _KEYS["manifold"][1:]}
    tors2 = need("torsion", "tors2_order", parse_int)
    n = len(rows["intersection_form"])
    for row, line_no in rows["intersection_form"]:
        if len(row) != n:
            raise ManifoldFileError(
                f"matrix row has {len(row)} entries, expected {n} "
                "(the intersection form must be square)",
                line_no,
                1,
            )
    w2 = tuple(v for row, _ in rows["w2"] for v in row)
    if len(w2) != n:
        raise ManifoldFileError(f"w2 has {len(w2)} entries, expected b2 = {n}", headers["w2"], 1)
    try:
        cup = triple_cup_from_entries(ints["b1"], n, (row for row, _ in rows["triple_cup"]))
    except ValueError as exc:  # only an entry can be refused, so [triple_cup] exists
        raise ManifoldFileError(str(exc), headers["triple_cup"], 1)
    try:
        topology = ManifoldTopology(
            name=name,
            **ints,
            intersection_form=tuple(tuple(row) for row, _ in rows["intersection_form"]),
            w2=w2,
            tors2_order=tors2,
            triple_cup=cup,
        )
    except ValueError as exc:
        raise ManifoldFileError(str(exc), headers["manifold"], 1)
    kahler = None
    if "kahler" in headers:
        kahler = KahlerFacts(
            canonical_class=need("kahler", "canonical_class", parse_int_vector),
            ns_basis=tuple(_parse(parse_int_vector, *e) for e in entries.get("ns_basis", [])),
            effective_cone=tuple(
                _parse(parse_fraction_vector, *e) for e in entries.get("effective_cone", [])
            ),
            pg_zero=need("kahler", "pg_zero", _parse_bool),
            kahler_ray=ray("kahler"),
        )
    return ManifoldData(topology, kahler, ray("psc") if "psc" in headers else None)


def load_manifold_file(path) -> ManifoldData:
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ManifoldFileError("input is not valid UTF-8", line) from None
    return parse_manifold_text(text)


def _fmt(value) -> str:
    """Value as file or report text: None is undetermined, bools true/false, tuples comma-joined."""
    if value is None:
        return "undetermined"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _ray_lines(ray: PeriodRay, section: str) -> list[str]:
    """The keys the parser's ray(section) reads, the default sign +1 left out."""
    lines = [f"{section}_ray = {_fmt(ray.h)}"]
    if ray.component_sign != 1:
        lines.append(f"{section}_component_sign = {ray.component_sign}")
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
    sections = {
        "manifold": [f"{key} = {_fmt(getattr(m, key))}" for key in _KEYS["manifold"]],
        "intersection_form": [" ".join(map(str, row)) for row in m.intersection_form],
        "w2": [" ".join(map(str, m.w2))],
        "torsion": [f"tors2_order = {m.tors2_order}"],
        "triple_cup": [f"{i} {j} {k} {v}" for i, j, k, v in m.triple_cup if i < j],
    }
    if data.kahler is not None:
        facts = data.kahler
        sections["kahler"] = [
            f"canonical_class = {_fmt(facts.canonical_class)}",
            *(f"ns_basis = {_fmt(row)}" for row in facts.ns_basis),
            *(f"effective_cone = {_fmt(row)}" for row in facts.effective_cone),
            f"pg_zero = {_fmt(facts.pg_zero)}",
            *_ray_lines(facts.kahler_ray, "kahler"),
        ]
    if data.psc_ray is not None:
        sections["psc"] = _ray_lines(data.psc_ray, "psc")
    # Required sections are written even when empty ([intersection_form] at b2 = 0).
    return "\n\n".join(
        "\n".join([f"[{section}]", *lines])
        for section, lines in sections.items()
        if lines or section in _REQUIRED_SECTIONS
    ) + "\n"
