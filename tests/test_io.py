"""Snapshot/CSV/config serialization: round trips and determinism."""

import numpy as np
import pytest

from koszulflow.grid import PeriodicGrid
from koszulflow.io import (
    ConfigError,
    format_float,
    parse_config_text,
    read_snapshot,
    render_csv,
    validate_config,
    write_snapshot,
)


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
