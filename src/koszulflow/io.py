"""Serialization: field snapshots, CSV diagnostics, config files, manifests.

Snapshot format (bit-exact, language-neutral): the magic bytes ``HFLD1\\n``,
one ASCII header line of space-separated ``key=value`` pairs (``n``,
``sizes``, ``lengths``, ``components``, ``t``,
``layout=row-major-components-innermost``, plus optional extras), then the
raw little-endian 64-bit floats of the field, node indices row-major with
components innermost.

All writes are atomic: data goes to a temporary file in the target
directory which is then renamed over the destination.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .grid import PeriodicGrid

SNAPSHOT_MAGIC = b"HFLD1\n"
SNAPSHOT_LAYOUT = "row-major-components-innermost"
MANIFEST_NAME = "manifest.json"


class ConfigError(Exception):
    """A run configuration failed validation."""


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_float(x: float) -> str:
    """Shortest decimal that round-trips the exact double."""
    return repr(float(x))


# --- snapshots -----------------------------------------------------------------

def write_snapshot(
    path: str,
    grid: PeriodicGrid,
    data: np.ndarray,
    t: float = 0.0,
    extra: Mapping[str, str] | None = None,
) -> None:
    """Write a field snapshot; ``data`` has shape ``grid.shape`` (one
    component) or ``(*grid.shape, ncomp)``."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.shape == grid.shape:
        arr = arr[..., None]
    if arr.shape[:-1] != grid.shape:
        raise ValueError(f"data shape {arr.shape} does not match grid {grid.shape}")
    fields = {
        "n": str(grid.ndim),
        "sizes": ",".join(str(s) for s in grid.sizes),
        "lengths": ",".join(format_float(length) for length in grid.lengths),
        "components": str(arr.shape[-1]),
        "t": format_float(t),
        "layout": SNAPSHOT_LAYOUT,
    }
    for key, value in (extra or {}).items():
        if key in fields:
            raise ValueError(f"extra key {key!r} collides with a required header key")
        fields[key] = str(value)
    header = " ".join(f"{k}={v}" for k, v in fields.items()) + "\n"
    payload = SNAPSHOT_MAGIC + header.encode("ascii") + arr.astype("<f8").tobytes(order="C")
    _atomic_write_bytes(path, payload)


def read_snapshot(path: str) -> tuple[PeriodicGrid, np.ndarray, float, dict[str, str]]:
    """Read a snapshot back; returns (grid, data, t, header_fields)."""
    with open(path, "rb") as handle:
        content = handle.read()
    magic = content[:len(SNAPSHOT_MAGIC)]
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: not a field snapshot (bad magic {magic!r})")
    header_bytes, newline, raw = content[len(SNAPSHOT_MAGIC):].partition(b"\n")
    if not newline:
        raise ValueError(f"{path}: truncated snapshot header")
    fields = {}
    for token in header_bytes.decode("ascii").split():
        key, _, value = token.partition("=")
        fields[key] = value
    if fields.get("layout") != SNAPSHOT_LAYOUT:
        raise ValueError(f"{path}: unsupported layout {fields.get('layout')!r}")
    sizes = tuple(int(s) for s in fields["sizes"].split(","))
    if int(fields["n"]) != len(sizes):
        raise ValueError(f"{path}: n={fields['n']} disagrees with sizes {fields['sizes']}")
    lengths = tuple(float(length) for length in fields["lengths"].split(","))
    grid = PeriodicGrid(sizes, lengths)
    ncomp = int(fields["components"])
    if len(raw) != 8 * grid.num_nodes * ncomp:
        raise ValueError(f"{path}: payload has {len(raw)} bytes, not 8 x {grid.num_nodes} "
                         f"nodes x {ncomp} components")
    data = np.frombuffer(raw, dtype="<f8").reshape(*grid.shape, ncomp).astype(np.float64)
    return grid, data, float(fields["t"]), fields


# --- CSV ----------------------------------------------------------------------

def render_csv(header: Sequence[str], rows: Sequence[Sequence[float]]) -> bytes:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(v) for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[float]]) -> None:
    _atomic_write_bytes(path, render_csv(header, rows))


# --- text reports ---------------------------------------------------------------

def write_text(path: str, lines: Sequence[str]) -> None:
    """ASCII report: one line per entry of ``lines``, each ending in a newline."""
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))


# --- config -------------------------------------------------------------------

def parse_config_text(text: str) -> dict[str, str]:
    """Flat ``key = value`` lines; ``#`` starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw_line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw_line!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="ascii") as handle:
            return parse_config_text(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def typed_value(raw: str, kind: str, key: str):
    try:
        if kind == "int":
            return int(raw)
        if kind in ("float", "floats"):
            values = tuple(float(v) for v in (raw.split(",") if kind == "floats" else [raw]))
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"config key {key!r}: {raw!r} is not finite")
            return values if kind == "floats" else values[0]
        if kind == "ints":
            return tuple(int(v) for v in raw.split(","))
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {kind}") from exc


def validate_config(raw: Mapping[str, str], schema: Mapping[str, str]) -> dict:
    """Typed config against a key -> kind schema; unknown keys are rejected."""
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return {key: typed_value(value, schema[key], key) for key, value in raw.items()}


# --- manifest -------------------------------------------------------------------

def write_manifest(out_dir: str, payload: Mapping[str, object]) -> None:
    body = dict(payload)
    body["versions"] = {
        "koszulflow": __version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    text = json.dumps(body, indent=2, sort_keys=True) + "\n"
    _atomic_write_bytes(os.path.join(out_dir, MANIFEST_NAME), text.encode("ascii"))
