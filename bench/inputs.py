"""Seeded inputs of the benchmark, built with numpy alone.

Nothing here imports surfield: the program receives only what these
functions generate.  Every input is a pure function of the workload seed
given on the command line, so the same seed replays the same inputs in the
same order.
"""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

WORKLOAD_IDS = {"fwer_stat2d": 1, "cli_lkc_nonstat3d": 2, "wn_theory_3d": 3}

# Fixed entropy of the warm-up input run during set-up; it does not depend on
# --seed so that set-up does the same work in every run.
WARMUP_ENTROPY = 20231213

FWER_FWHMS = (3.0, 1.0)  # alternated: operation i uses FWER_FWHMS[i % 2]
FWER_N_SUBJECTS = 50
FWER_ALPHA = 0.05
FWER_INPUTS = 1000  # master seeds drawn per run, replayed in order and cycled

CLI_N_SUBJECTS = 50
CLI_ENSEMBLES = 24  # distinct SRF1 files per run, cycled in order
CLI_FWHM = 3.0
CLI_ALPHA = 0.05

WN_FWHMS = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)  # the criterion-1 list
WN_R = 7


def _rng(seed: int, workload: str, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, WORKLOAD_IDS[workload], *key]))


def fwer_master_seeds(seed: int) -> list[int]:
    """Master seeds of the fwer_stat2d replications, in run order."""
    draws = _rng(seed, "fwer_stat2d").integers(0, 2**31 - 1, size=FWER_INPUTS)
    return [int(s) for s in draws]


def wn_order(seed: int) -> list[float]:
    """The seven FWHMs in turn, starting at a seed-chosen position."""
    start = seed % len(WN_FWHMS)
    return list(WN_FWHMS[start:] + WN_FWHMS[:start])


# ---------------------------------------------------------------------------
# Domains, written out from their published definitions
# ---------------------------------------------------------------------------


def integer_box(lo: float, hi: float, D: int) -> np.ndarray:
    """Integer points of [lo, hi]^D, first axis slowest (C order)."""
    axis = np.arange(math.ceil(lo), math.floor(hi) + 1, dtype=np.float64)
    grids = np.meshgrid(*([axis] * D), indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def padded_stat_box(fwhm: float, D: int, L: int = 20) -> np.ndarray:
    """Sampling voxels of the stationary presets: [1, L]^D widened by
    a = sqrt(2) f / sqrt(log 2) on every side."""
    a = math.sqrt(2.0) * fwhm / math.sqrt(math.log(2.0))
    return integer_box(1 - a, L + a, D)


def nonstat3d_shell() -> np.ndarray:
    """Voxels of [1, 20]^3 with some coordinate in {1, 2, 19, 20}: a
    two-voxel-thick hollow cube, homotopic to a sphere."""
    full = integer_box(1, 20, 3)
    keep = np.isin(full, (1.0, 2.0, 19.0, 20.0)).any(axis=1)
    return full[keep]


def null_draws(master_seed: int, stream: int, n: int, n_vox: int) -> np.ndarray:
    """Standard-normal draws of replication ``stream`` under the documented
    derivation SeedSequence(master_seed, spawn_key=(stream,))."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream,))
    return np.random.default_rng(ss).standard_normal((n, n_vox))


# ---------------------------------------------------------------------------
# SRF1 files
# ---------------------------------------------------------------------------


def write_srf1(path: Path, coords: np.ndarray, values: np.ndarray) -> None:
    """SRF1 container as documented in surfield.fieldio: magic, u16 version,
    u8 D, u64 n_vox, coords, u32 n_fld, values; little-endian throughout."""
    n_vox, D = coords.shape
    with open(path, "wb") as fh:
        fh.write(b"SRF1")
        fh.write(struct.pack("<HBQ", 1, D, n_vox))
        fh.write(np.ascontiguousarray(coords, dtype="<f8").tobytes())
        fh.write(struct.pack("<I", values.shape[0]))
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def cli_ensemble(seed: int, j: int) -> np.ndarray:
    """Values (subjects x voxels) of the j-th nonstat3d ensemble of a run."""
    n_vox = len(nonstat3d_shell())
    return _rng(seed, "cli_lkc_nonstat3d", j).standard_normal((CLI_N_SUBJECTS, n_vox))


def cli_files(work: Path) -> list[Path]:
    """The run's ensemble files, in replay order."""
    return [work / f"ens{j:02d}.srf1" for j in range(CLI_ENSEMBLES)]


def write_cli_inputs(work: Path, seed: int) -> None:
    """Write the warm-up file and the run's ensembles into ``work``."""
    coords = nonstat3d_shell()
    warm = np.random.default_rng(WARMUP_ENTROPY).standard_normal((CLI_N_SUBJECTS, len(coords)))
    write_srf1(work / "warmup.srf1", coords, warm)
    for j, path in enumerate(cli_files(work)):
        write_srf1(path, coords, cli_ensemble(seed, j))
