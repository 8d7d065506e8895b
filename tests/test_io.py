"""Snapshot/CSV/config serialization: round trips and determinism."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulflow.cli import VERBS
from koszulflow.grid import PeriodicGrid
from koszulflow.io import (
    ConfigError,
    format_float,
    parse_config_text,
    read_snapshot,
    render_csv,
    validate_config,
    write_snapshot,
    write_text,
)

LINE = PeriodicGrid((16,), (1.0,))


def test_snapshot_round_trip_is_bit_exact(tmp_path):
    grid = PeriodicGrid((16, 8), (2 * np.pi, 1.0))
    rng = np.random.default_rng(0)
    data = rng.standard_normal((*grid.shape, 3))
    path = tmp_path / "field.hfld"
    write_snapshot(str(path), grid, data, t=0.125, extra={"kind": "metric"})
    grid2, data2, t, fields = read_snapshot(str(path))
    assert grid2 == grid
    assert t == 0.125
    assert fields["layout"] == "row-major-components-innermost"
    assert fields["kind"] == "metric"
    assert data2.shape == data.shape
    assert np.array_equal(data2, data)
    assert data.tobytes() == data2.tobytes()


# extreme doubles the payload must carry unchanged: signed zero, the smallest
# subnormal, the largest finite value and the smallest normal
SPECIAL = np.array([-0.0, 5e-324, -1.7976931348623157e308, 2.2250738585072014e-308])


@settings(max_examples=40)
@given(sizes=st.lists(st.integers(8, 10), min_size=1, max_size=3),
       lengths=st.lists(st.floats(1e-6, 1e6), min_size=3, max_size=3),
       ncomp=st.integers(1, 10), t=st.floats(0.0, 1e6), seed=st.integers(0, 2**32 - 1))
def test_snapshot_round_trip_hypothesis(tmp_path_factory, sizes, lengths, ncomp, t, seed):
    grid = PeriodicGrid(tuple(sizes), tuple(lengths[:len(sizes)]))
    rng = np.random.default_rng(seed)
    shape = (*grid.shape, ncomp)
    data = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
    data.flat[rng.choice(data.size, len(SPECIAL), replace=False)] = SPECIAL
    path = tmp_path_factory.mktemp("snap") / "field.hfld"
    write_snapshot(str(path), grid, data, t=t)
    grid2, data2, t2, _ = read_snapshot(str(path))
    assert grid2 == grid and t2 == t
    assert data2.shape == data.shape and data2.tobytes() == data.tobytes()


def test_snapshot_magic_and_scalar_shape(tmp_path):
    grid = PeriodicGrid((16,), (1.0,))
    path = tmp_path / "s.hfld"
    write_snapshot(str(path), grid, np.zeros(grid.shape))
    with open(path, "rb") as handle:
        assert handle.read(6) == b"HFLD1\n"
    _, data, _, fields = read_snapshot(str(path))
    assert fields["components"] == "1"
    assert data.shape == (16, 1)

    bad = tmp_path / "bad.hfld"
    bad.write_bytes(b"NOPE!\n")
    with pytest.raises(ValueError):
        read_snapshot(str(bad))


# case -> (a write the library rejects, the ValueError message it names)
REJECTED_WRITES = {
    "data-of-wrong-shape": (lambda path: write_snapshot(path, LINE, np.zeros(15)),
                            "data shape (15,) does not match grid (16,)"),
    "extra-key-collides": (lambda path: write_snapshot(path, LINE, np.zeros(16), extra={"t": "1.0"}),
                           "extra key 't' collides with a required header key"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_WRITES))
def test_rejected_write_names_its_message(tmp_path, case):
    write, message = REJECTED_WRITES[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        write(str(tmp_path / "s.hfld"))
    assert not list(tmp_path.iterdir())


def test_text_report_is_atomic(tmp_path):
    write_text(str(tmp_path / "report.txt"), ["a: 1", "b: 2"])
    assert (tmp_path / "report.txt").read_bytes() == b"a: 1\nb: 2\n"
    # a destination taken by a directory: the rename fails and the temporary
    # file is removed
    (tmp_path / "taken.txt").mkdir()
    with pytest.raises(IsADirectoryError):
        write_text(str(tmp_path / "taken.txt"), ["a: 1"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt", "taken.txt"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda b: b.replace(b"layout=row-major-components-innermost", b"layout=column-major"),
         "unsupported layout"),
        (lambda b: b.replace(b"n=2 ", b"n=3 "), "disagrees with sizes"),
        (lambda b: b[:-8], "payload has"),
        (lambda b: b + b"\0" * 8, "payload has"),
    ],
    ids=["layout", "n-vs-sizes", "short-payload", "long-payload"],
)
def test_malformed_snapshot_is_named(tmp_path, edit, message):
    grid = PeriodicGrid((8, 8), (1.0, 1.0))
    path = tmp_path / "s.hfld"
    write_snapshot(str(path), grid, np.zeros((*grid.shape, 3)))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        read_snapshot(str(path))


@pytest.mark.parametrize("cut", [0, 3, 6, 20], ids=["empty", "in-magic", "after-magic", "in-header"])
def test_truncated_snapshot_is_named(tmp_path, cut):
    grid = PeriodicGrid((8,), (1.0,))
    path = tmp_path / "s.hfld"
    write_snapshot(str(path), grid, np.zeros(grid.shape))
    path.write_bytes(path.read_bytes()[:cut])
    message = "bad magic" if cut < 6 else "truncated snapshot header"
    with pytest.raises(ValueError, match=message):
        read_snapshot(str(path))


def test_float_formatting_round_trips():
    for value in (0.1, 2.0 / 3.0, 1e-300, 6.283185307179586, -0.0):
        assert float(format_float(value)) == value


def test_render_csv_deterministic():
    rows = [[0.1, 2.0 / 3.0], [1.0, -5e-9]]
    assert render_csv(["a", "b"], rows) == render_csv(["a", "b"], rows)
    text = render_csv(["a", "b"], rows).decode()
    assert text.splitlines()[0] == "a,b"
    assert text.splitlines()[1] == "0.1,0.6666666666666666"


def test_config_parsing():
    cfg = parse_config_text(
        """
        # a comment
        example = sin1d
        T = 5.0  # trailing comment
        sizes = 128,128
        """
    )
    assert cfg == {"example": "sin1d", "T": "5.0", "sizes": "128,128"}
    with pytest.raises(ConfigError):
        parse_config_text("not a pair")
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2")
    with pytest.raises(ConfigError):
        parse_config_text("a =")


def test_validate_config_rejects_unknown_and_bad_types():
    schema = {"T": "float", "sizes": "ints", "scheme": "str"}
    ok = validate_config({"T": "2.5", "sizes": "64,64"}, schema)
    assert ok == {"T": 2.5, "sizes": (64, 64)}
    with pytest.raises(ConfigError):
        validate_config({"bogus": "1"}, schema)
    with pytest.raises(ConfigError):
        validate_config({"T": "abc"}, schema)
    for value, spellings in BOOL_SPELLINGS.items():
        for text in spellings:
            assert validate_config({"flag": text}, {"flag": "bool"}) == {"flag": value}
    with pytest.raises(ConfigError):
        validate_config({"flag": "maybe"}, {"flag": "bool"})


# --- config round trips over every verb's schema ---------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
BOOL_SPELLINGS = {True: ["true", "1", "yes", "TRUE", "Yes"], False: ["false", "0", "no", "FALSE", "No"]}
# printable ASCII without "#" (a comment); inner spaces only, as the parser strips
STR_VALUE = st.text(st.sampled_from([chr(c) for c in range(32, 127) if chr(c) != "#"]),
                    min_size=1, max_size=12).filter(lambda v: v.strip() == v)


@st.composite
def typed_entry(draw, kind):
    """``(value, text)``: a typed config value and a rendering of it, floats by repr."""
    if kind == "int":
        value = draw(st.integers(-10**6, 10**6))
        return value, str(value)
    if kind == "ints":
        value = tuple(draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4)))
        return value, ",".join(map(str, value))
    if kind == "float":
        value = draw(FINITE)
        return value, repr(value)
    if kind == "floats":
        value = tuple(draw(st.lists(FINITE, min_size=1, max_size=4)))
        return value, ",".join(map(repr, value))
    if kind == "bool":
        value = draw(st.booleans())
        return value, draw(st.sampled_from(BOOL_SPELLINGS[value]))
    value = draw(STR_VALUE)
    return value, value


@st.composite
def config_sets(draw):
    """A verb's schema, a random set of its keys with typed values, and the
    config text that renders them, with random spacing and comments."""
    schema = VERBS[draw(st.sampled_from(sorted(VERBS)))].schema
    keys = draw(st.lists(st.sampled_from(sorted(schema)), unique=True, max_size=len(schema)))
    expected, lines = {}, []
    for key in keys:
        expected[key], text = draw(typed_entry(schema[key]))
        pad = draw(st.sampled_from(["", " ", "  "]))
        comment = draw(st.sampled_from(["", "  # note", "#"]))
        lines.append(f"{pad}{key}{pad}={pad}{text}{comment}")
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# comment", "   "])))
    return schema, expected, "\n".join(lines)


@settings(max_examples=100)
@given(config=config_sets())
def test_config_round_trip_hypothesis(config):
    schema, expected, text = config
    typed = validate_config(parse_config_text(text), schema)
    assert typed == expected
    assert repr(typed) == repr(expected)  # also tells -0.0 from 0.0


NON_FINITE = st.sampled_from(["inf", "-inf", "nan", "-nan", "Infinity", "NaN", "1e999", "-1e400"])
FLOAT_KEYS = sorted({(verb, key) for verb, spec in VERBS.items()
                     for key, kind in spec.schema.items() if kind in ("float", "floats")})


@settings(max_examples=60)
@given(verb_key=st.sampled_from(FLOAT_KEYS), bad=NON_FINITE, finite=st.lists(FINITE, max_size=3),
       data=st.data())
def test_non_finite_float_entries_are_rejected(verb_key, bad, finite, data):
    verb, key = verb_key
    schema = VERBS[verb].schema
    if schema[key] == "float":
        text = bad
    else:
        entries = [repr(v) for v in finite]
        entries.insert(data.draw(st.integers(0, len(entries))), bad)
        text = ",".join(entries)
    with pytest.raises(ConfigError, match="not finite"):
        validate_config(parse_config_text(f"{key} = {text}"), schema)
