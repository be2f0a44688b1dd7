"""Field file formats: the SRF1 binary container and CSV interchange.

SRF1 layout (all little-endian):
    magic   4 bytes  b"SRF1"
    version u16      currently 1
    D       u8       dimension
    n_vox   u64      voxel count
    coords  n_vox * D float64    voxel centers, row major
    n_fld   u32      field count
    values  n_fld * n_vox float64

CSV interchange uses one row per voxel: D coordinate columns followed by one
value column per field.
"""
from __future__ import annotations

import csv
import os
import struct
from pathlib import Path

import numpy as np

from .lattice import FieldEnsemble, VoxelSet

__all__ = ["write_srf1", "read_srf1", "write_csv", "read_csv"]

_MAGIC = b"SRF1"
_VERSION = 1


def write_srf1(path: str | Path, ensemble: FieldEnsemble) -> None:
    dom = ensemble.domain
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<HBQ", _VERSION, dom.dimension, dom.n_voxels))
        fh.write(np.ascontiguousarray(dom.coords, dtype="<f8").tobytes())
        fh.write(struct.pack("<I", ensemble.n_fields))
        fh.write(np.ascontiguousarray(ensemble.values, dtype="<f8").tobytes())


def read_srf1(path: str | Path) -> FieldEnsemble:
    """Read an SRF1 file; a malformed one raises ValueError before any array
    is allocated."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not an SRF1 file (magic {magic!r})")
        header = fh.read(11)
        if len(header) < 11:
            raise ValueError(f"truncated SRF1 header: {size} bytes")
        version, D, n_vox = struct.unpack("<HBQ", header)
        if version != _VERSION:
            raise ValueError(f"unsupported SRF1 version {version}")
        if not 1 <= D <= 3:
            raise ValueError(f"SRF1 dimension must be 1..3, got {D}")
        coords_end = 15 + 8 * n_vox * D
        if size < coords_end + 4:
            raise ValueError(
                f"SRF1 file of {size} bytes is too short for {n_vox} voxels in {D}D"
            )
        coords = np.frombuffer(fh.read(8 * n_vox * D), dtype="<f8").reshape(n_vox, D)
        (n_fld,) = struct.unpack("<I", fh.read(4))
        if size != coords_end + 4 + 8 * n_fld * n_vox:
            raise ValueError(
                f"SRF1 file of {size} bytes does not match its header "
                f"({n_fld} fields of {n_vox} voxels in {D}D)"
            )
        values = np.frombuffer(fh.read(8 * n_fld * n_vox), dtype="<f8").reshape(n_fld, n_vox)
    return FieldEnsemble(VoxelSet(coords.copy()), values.copy())


def write_csv(path: str | Path, ensemble: FieldEnsemble) -> None:
    dom = ensemble.domain
    header = [f"x{d}" for d in range(dom.dimension)]
    header += [f"value{i}" for i in range(ensemble.n_fields)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for j in range(dom.n_voxels):
            row = [repr(float(c)) for c in dom.coords[j]]
            row += [repr(float(v)) for v in ensemble.values[:, j]]
            writer.writerow(row)


def read_csv(path: str | Path) -> FieldEnsemble:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        D = sum(1 for h in header if h.startswith("x"))
        if D == 0:
            raise ValueError("CSV header must contain coordinate columns x0..x{D-1}")
        rows = []
        for row in filter(None, reader):
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} values for {len(header)} columns")
                rows.append([float(c) for c in row])
            except ValueError as e:
                raise ValueError(f"CSV {path} line {reader.line_num}: {e}") from None
    if not rows:
        raise ValueError(f"CSV {path} has no data rows")
    data = np.asarray(rows, dtype=np.float64)
    coords = data[:, :D]
    values = data[:, D:].T
    return FieldEnsemble(VoxelSet(coords), values)
