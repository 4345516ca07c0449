"""Parsing, error positions, and the canonical round trip."""

from __future__ import annotations

import dataclasses
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from swcalc import (
    DomainError,
    ManifoldFileError,
    emit_manifold_text,
    load_manifold_file,
    parse_manifold_text,
    validate_topology,
)

from conftest import B2_ZERO, P2_FILE_TEXT, b2_zero_text

MINIMAL = """\
[manifold]
name = S2xS2
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
"""


def test_parse_p2_file():
    data = parse_manifold_text(P2_FILE_TEXT)
    m = data.topology
    assert m.name == "P2"
    assert (m.b1, m.bplus, m.bminus, m.euler, m.signature) == (0, 1, 0, 3, 1)
    assert m.intersection_form == ((1,),)
    assert m.w2 == (1,)
    assert data.kahler is not None
    assert data.kahler.canonical_class == (-3,)
    assert data.kahler.effective_cone == ((Fraction(1),),)
    assert data.kahler.pg_zero is True
    assert data.psc_ray is not None
    assert data.psc_ray.h == (Fraction(1),)


def test_parse_minimal_without_facts():
    data = parse_manifold_text(MINIMAL)
    assert data.kahler is None
    assert data.psc_ray is None
    assert data.topology.intersection_form == ((0, 1), (1, 0))


def test_parse_triple_cup_section():
    text = MINIMAL.replace("b1 = 0", "b1 = 2").replace("euler = 4", "euler = 0")
    text += "\n[triple_cup]\n1 2 1 1\n"
    data = parse_manifold_text(text)
    cup = {(i, j, k): v for i, j, k, v in data.topology.triple_cup}
    assert cup[(1, 2, 1)] == 1
    assert cup[(2, 1, 1)] == -1


def test_parse_errors_carry_line_and_column():
    bad = MINIMAL.replace("0 1", "0 x", 1)
    with pytest.raises(ManifoldFileError) as info:
        parse_manifold_text(bad)
    assert info.value.line == 10
    assert info.value.column == 3

    with pytest.raises(ManifoldFileError) as info:
        parse_manifold_text(MINIMAL.replace("0 1\n", "0 1 0\n", 1))
    assert "square" in str(info.value)

    with pytest.raises(ManifoldFileError) as info:
        parse_manifold_text(MINIMAL + "\n[nope]\nx = 1\n")
    assert "unknown section" in str(info.value)

    with pytest.raises(ManifoldFileError) as info:
        parse_manifold_text(MINIMAL.replace("[torsion]\ntors2_order = 1\n", ""))
    assert "missing required section" in str(info.value)

    with pytest.raises(ManifoldFileError) as info:
        parse_manifold_text(MINIMAL.replace("name = S2xS2\n", ""))
    assert "missing key 'name'" in str(info.value)

    with pytest.raises(ManifoldFileError) as info:
        parse_manifold_text(MINIMAL + "\n[triple_cup]\n1 2 1\n")
    assert "i j k value" in str(info.value)

    # Constructor refusals point at [manifold] and at the sign entry; a
    # w2 entry outside 0/1 is reported before the next token is parsed.
    for text, message in [
        (P2_FILE_TEXT.replace("b1 = 0", "b1 = -1"),
         "line 1, column 1: Betti numbers must be nonnegative"),
        (P2_FILE_TEXT + "psc_component_sign = 2\n",
         "line 27, column 21: component_sign must be +1 or -1, got 2"),
        (P2_FILE_TEXT.replace("[w2]\n1", "[w2]\n2"),
         "line 13, column 1: w2 entries must be 0 or 1, got 2"),
        (P2_FILE_TEXT.replace("[w2]\n1", "[w2]\n2 x"),
         "line 13, column 1: w2 entries must be 0 or 1, got 2"),
    ]:
        with pytest.raises(ManifoldFileError) as info:
            parse_manifold_text(text)
        assert str(info.value) == message
    text = P2_FILE_TEXT.replace("pg_zero = true", "pg_zero = false")
    assert parse_manifold_text(text).kahler.pg_zero is False

    # Vector values parse to the given entries, or fail at the (line,
    # column) of the value: canonical_class is an integer vector on
    # line 19, kahler_ray a rational one on line 23.
    F = Fraction
    cases = [
        (" 1, 2 ", (1, 2), (F(1), F(2))),
        ("1/2", None, (F(1, 2),)),
        ("-3", (-3,), (F(-3),)),
        ("1/0", None, None),
        ("", None, None),
        ("1,,2", None, None),
        ("x", None, None),
    ]
    for spelling, canonical, ray in cases:
        text = P2_FILE_TEXT.replace("canonical_class = -3", f"canonical_class = {spelling}")
        if canonical is None:
            with pytest.raises(ManifoldFileError) as info:
                parse_manifold_text(text)
            assert (info.value.line, info.value.column) == (19, 18)
        else:
            assert parse_manifold_text(text).kahler.canonical_class == canonical
        text = P2_FILE_TEXT.replace("kahler_ray = 1", f"kahler_ray = {spelling}")
        if ray is None:
            with pytest.raises(ManifoldFileError) as info:
                parse_manifold_text(text)
            assert (info.value.line, info.value.column) == (23, 13)
        else:
            assert parse_manifold_text(text).kahler.kahler_ray.h == ray


def test_load_rejects_non_utf8_input(tmp_path):
    path = tmp_path / "latin1.manifold"
    path.write_bytes(b"[manifold]\n\xff\n")
    with pytest.raises(ManifoldFileError) as info:
        load_manifold_file(path)
    assert info.value.line == 2
    assert str(info.value) == "line 2: input is not valid UTF-8"


DEMO_P2 = Path(__file__).resolve().parent.parent / "demos" / "p2.manifold"
BOM = b"\xef\xbb\xbf"


def test_load_drops_one_leading_byte_order_mark(tmp_path):
    path = tmp_path / "bom.manifold"
    path.write_bytes(BOM + DEMO_P2.read_bytes())
    assert load_manifold_file(path) == load_manifold_file(DEMO_P2)


def test_load_counts_lines_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom-latin1.manifold"
    path.write_bytes(BOM + b"[manifold]\n\xff\n")
    with pytest.raises(ManifoldFileError) as info:
        load_manifold_file(path)
    assert str(info.value) == "line 2: input is not valid UTF-8"


def test_load_refuses_a_byte_order_mark_after_the_start(tmp_path):
    lines = DEMO_P2.read_bytes().splitlines(keepends=True)
    path = tmp_path / "bom-line2.manifold"
    path.write_bytes(lines[0] + BOM + b"".join(lines[1:]))
    with pytest.raises(ManifoldFileError) as info:
        load_manifold_file(path)
    assert info.value.line == 2


def test_parse_rejects_duplicate_cup_entries():
    text = MINIMAL.replace("b1 = 0", "b1 = 2").replace("euler = 4", "euler = 0")
    text += "\n[triple_cup]\n1 2 1 1\n2 1 1 1\n"
    with pytest.raises(ManifoldFileError) as info:
        parse_manifold_text(text)
    assert "duplicate" in str(info.value)


def test_parse_rejects_duplicate_keys_and_sections():
    with pytest.raises(ManifoldFileError):
        parse_manifold_text(MINIMAL + "\n[manifold]\nname = again\n")
    with pytest.raises(ManifoldFileError):
        parse_manifold_text(MINIMAL.replace("b1 = 0", "b1 = 0\nb1 = 0"))


def test_round_trip_is_identity_on_data():
    for text in (P2_FILE_TEXT, MINIMAL):
        data = parse_manifold_text(text)
        emitted = emit_manifold_text(data)
        again = parse_manifold_text(emitted)
        assert again == data
        # The canonical form is a fixed point of emission.
        assert emit_manifold_text(again) == emitted


def test_round_trip_with_cup_and_component_signs():
    text = MINIMAL.replace("b1 = 0", "b1 = 2").replace("euler = 4", "euler = 0")
    text += (
        "\n[triple_cup]\n1 2 1 2\n1 2 2 -1\n"
        "\n[psc]\npsc_ray = 1,1\npsc_component_sign = -1\n"
    )
    data = parse_manifold_text(text)
    assert data.psc_ray.component_sign == -1
    again = parse_manifold_text(emit_manifold_text(data))
    assert again == data


@pytest.mark.parametrize("name, b1, euler", B2_ZERO)
def test_round_trip_at_b2_zero(name, b1, euler):
    text = b2_zero_text(name, b1, euler)
    data = parse_manifold_text(text)
    assert (data.topology.b1, data.topology.b2) == (b1, 0)
    assert validate_topology(data.topology) == []
    # Every required section is written, [intersection_form] with no lines.
    assert emit_manifold_text(data) == text
    assert parse_manifold_text(emit_manifold_text(data)) == data


def _renamed(name):
    data = parse_manifold_text(P2_FILE_TEXT)
    return dataclasses.replace(data, topology=dataclasses.replace(data.topology, name=name))


@pytest.mark.parametrize(
    "name", ["P#2", "  ", " P2", "P2 ", "P2\nb1 = 3", "P2\r", "P2\x0bX", "P2\u2028X"]
)
def test_emit_refuses_names_that_do_not_parse_back(name):
    # Written out, each would read back as other data: "P#2" as "P" (the
    # rest is a comment), blank names as "", "P2\nb1 = 3" as a second b1.
    with pytest.raises(DomainError, match="does not re-parse"):
        emit_manifold_text(_renamed(name))


@pytest.mark.parametrize("name", ["", "P2 (blown up)", "a=b", "[w2]"])
def test_emit_round_trips_unusual_names(name):
    data = _renamed(name)
    assert parse_manifold_text(emit_manifold_text(data)) == data


def test_comments_and_blank_lines_are_ignored():
    text = "# leading comment\n\n" + P2_FILE_TEXT.replace(
        "[torsion]", "# about torsion\n[torsion]"
    )
    assert parse_manifold_text(text).topology.name == "P2"


CUBIC_FILE_TEXT = (
    Path(__file__).resolve().parent.parent / "demos" / "cubic_surface.manifold"
).read_text(encoding="utf-8")
# Tokens of the two seed files, whitespace and separators included, plus
# a few that they lack.
_FILE_TOKENS = re.compile(r"\s+|[,=#/\[\]]|[^\s,=#/\[\]]+")
TOKEN_POOL = sorted(
    set(_FILE_TOKENS.findall(P2_FILE_TEXT + CUBIC_FILE_TEXT))
    | {"[triple_cup]", "[psc]", "1 2 1 2", "-1", "0", "x", "false", "psc_component_sign"}
)


@st.composite
def mutated_files(draw):
    tokens = _FILE_TOKENS.findall(draw(st.sampled_from([P2_FILE_TEXT, CUBIC_FILE_TEXT])))
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            del tokens[draw(st.integers(0, len(tokens) - 1))]
        else:
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(TOKEN_POOL)))
    return "".join(tokens)


@settings(max_examples=400)
@given(mutated_files())
def test_mutated_files_fail_cleanly_or_round_trip(text):
    try:
        data = parse_manifold_text(text)
    except ManifoldFileError:
        event("refused")
        return
    event("parsed")
    assert parse_manifold_text(emit_manifold_text(data)) == data
