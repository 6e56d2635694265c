"""Bit-exact file formats: field snapshots and CSV energy logs.

Snapshot layout: one UTF-8 header line (space-separated ``key=value`` pairs,
terminated by a newline byte) followed by the raw payload of little-endian
64-bit floats, row-major, ``n^dim`` values.  Floats in the header use
Python's shortest round-trip decimal form, so write/read is lossless.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import Grid
from .model import ModelParams, Scheme
from .spectral import Field
from .stepper import EnergyRecord

__all__ = [
    "SnapshotMeta",
    "SnapshotError",
    "write_snapshot",
    "read_snapshot",
    "energy_row",
    "write_energy_log",
]

MAGIC = "spfcfield"
FORMAT_VERSION = 1
ENERGY_COLUMNS = ("step", "time", "E", "E_mod", "mass", "h2_norm", "psd_iters", "residual")
ENERGY_HEADER = ",".join(ENERGY_COLUMNS) + "\n"


class SnapshotError(ValueError):
    """Malformed snapshot file (bad header, version/shape mismatch, invalid
    grid or model constants, short or non-finite payload)."""


@dataclass
class SnapshotMeta:
    """Header metadata of a snapshot file."""

    dim: int
    n: int
    length: float
    time: float
    step: int
    scheme: str
    epsilon: float
    reg_a: float
    seed: int


def _header_line(meta: SnapshotMeta) -> str:
    return (
        f"{MAGIC} version={FORMAT_VERSION} dim={meta.dim} n={meta.n} "
        f"length={meta.length!r} time={meta.time!r} step={meta.step} "
        f"scheme={meta.scheme} epsilon={meta.epsilon!r} A={meta.reg_a!r} "
        f"seed={meta.seed}\n"
    )


def write_snapshot(field: Field, meta: SnapshotMeta, path) -> None:
    if field.grid.dim != meta.dim or field.grid.n != meta.n:
        raise SnapshotError(
            f"metadata ({meta.dim}d, n={meta.n}) does not match the field "
            f"({field.grid.dim}d, n={field.grid.n})"
        )
    with open(path, "wb") as fh:
        fh.write(_header_line(meta).encode("utf-8"))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_snapshot(path) -> tuple[Field, SnapshotMeta]:
    """The field and metadata of a snapshot file; any malformed file raises
    :class:`SnapshotError`."""
    with open(path, "rb") as fh:
        header = fh.readline(4097)  # at most 4096 bytes and the newline
        if len(header) == 4097 and not header.endswith(b"\n"):
            raise SnapshotError("header too long; not a snapshot file")
        if not header.endswith(b"\n"):
            raise SnapshotError("unterminated header")
        payload = fh.read()

    try:
        parts = header.decode("utf-8").split()
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"header is not UTF-8: {exc}") from exc
    if not parts or parts[0] != MAGIC:
        raise SnapshotError(f"bad magic; expected {MAGIC!r}")
    kv = dict(part.partition("=")[::2] for part in parts[1:])
    if kv.get("version") != str(FORMAT_VERSION):
        raise SnapshotError(f"unsupported format version {kv.get('version')}")
    try:
        meta = SnapshotMeta(
            dim=int(kv["dim"]),
            n=int(kv["n"]),
            length=float(kv["length"]),
            time=float(kv["time"]),
            step=int(kv["step"]),
            scheme=kv["scheme"],
            epsilon=float(kv["epsilon"]),
            reg_a=float(kv["A"]),
            seed=int(kv["seed"]),
        )
    except (KeyError, ValueError) as exc:
        raise SnapshotError(f"malformed header: {exc}") from exc
    try:
        grid = Grid(dim=meta.dim, n=meta.n, length=meta.length)
        ModelParams(meta.epsilon, meta.reg_a, Scheme(meta.scheme))
    except ValueError as exc:
        raise SnapshotError(f"bad header: {exc}") from exc
    if not math.isfinite(meta.time) or meta.step < 0 or meta.seed < 0:
        raise SnapshotError(f"bad header: time={meta.time} step={meta.step} seed={meta.seed}")
    expected = grid.size * 8
    if len(payload) != expected:
        raise SnapshotError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}"
        )
    try:
        return Field(grid, np.frombuffer(payload, dtype="<f8").reshape(grid.shape).copy()), meta
    except ValueError as exc:
        raise SnapshotError(f"bad payload: {exc}") from exc


def energy_row(r: EnergyRecord) -> str:
    """One CSV energy-log line; floats use shortest round-trip decimals."""
    return (
        f"{r.step},{r.time!r},{r.E!r},{r.E_mod!r},{r.mass!r},"
        f"{r.h2_norm!r},{r.psd_iters},{r.final_residual!r}\n"
    )


def write_energy_log(records: Sequence[EnergyRecord], path) -> None:
    """CSV energy log: the header line, then one :func:`energy_row` per record."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(ENERGY_HEADER)
        fh.writelines(map(energy_row, records))


def snapshot_path(directory, step: int) -> str:
    return os.path.join(directory, f"snap_{step:08d}.spfc")
