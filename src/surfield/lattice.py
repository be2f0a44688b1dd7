"""Discrete voxel sets and lattice-valued random fields.

A voxel set is a finite collection of points in R^D together with the
per-axis spacing derived from the minimum positive coordinate gap.  Random
data lives on the voxel set as lattice fields; seeded Gaussian ensembles are
generated through splittable RNG streams so that replications are
embarrassingly parallel and reproducible.  Each ensemble owns the data
tensor every separable kernel sum reads (``FieldEnsemble.dense``), built
once; a voxel set owns the field of ones whose sums are the white-noise
moments (``VoxelSet.unit_field``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "VoxelSet",
    "FieldEnsemble",
    "RngSpec",
    "make_domain_preset",
    "sample_ensemble",
    "PRESET_NAMES",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class VoxelSet:
    """Finite set of voxel centers with derived per-axis spacing.

    ``spacing[d]`` is the minimum positive gap between distinct d-th
    coordinates.  Every axis must show at least two distinct values,
    otherwise the box width along that axis would be undefined.

    ``interior`` optionally references a sub-domain on which the continuous
    analysis domain is built while the full set carries the data (used by the
    boundary-padded simulation presets).
    """

    coords: np.ndarray
    spacing: np.ndarray = field(init=False)
    interior: "VoxelSet | None" = None

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2 or coords.shape[0] == 0:
            raise ValueError("coords must be a non-empty (n, D) array")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords must be finite")
        D = coords.shape[1]
        if D < 1 or D > 3:
            raise ValueError(f"dimension must be 1..3, got {D}")
        rows = coords[np.lexsort(coords.T)]  # equal rows (+0.0 equal to -0.0) end up adjacent
        if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
            raise ValueError("coords must be distinct")
        spacing = np.empty(D)
        for d in range(D):
            vals = np.unique(coords[:, d])
            if vals.size < 2:
                raise ValueError(f"axis {d} has a single coordinate value; spacing undefined")
            spacing[d] = np.min(np.diff(vals))
        object.__setattr__(self, "coords", _readonly(coords))
        object.__setattr__(self, "spacing", _readonly(spacing))

    @property
    def dimension(self) -> int:
        return self.coords.shape[1]

    @property
    def n_voxels(self) -> int:
        return self.coords.shape[0]

    @cached_property
    def axis_values(self) -> tuple[np.ndarray, ...]:
        """Sorted unique coordinate values per axis."""
        return tuple(_readonly(np.unique(self.coords[:, d])) for d in range(self.dimension))

    @cached_property
    def axis_index(self) -> np.ndarray:
        """Adjacency-preserving integer index of each voxel, shape (n, D).

        Consecutive axis values separated by exactly ``spacing[d]`` map to
        consecutive integers; larger gaps map to an index jump of at least 2
        so that only geometrically touching boxes become lattice neighbors
        (see ``axis_index_values``).
        """
        idx = np.empty(self.coords.shape, dtype=np.int64)
        for d in range(self.dimension):
            idx[:, d] = self.axis_index_values[d][self.axis_positions[:, d]]
        idx.setflags(write=False)
        return idx

    @cached_property
    def axis_positions(self) -> np.ndarray:
        """Position of each voxel's coordinate in ``axis_values``, shape (n, D)."""
        pos = np.empty(self.coords.shape, dtype=np.int64)
        for d in range(self.dimension):
            pos[:, d] = np.searchsorted(self.axis_values[d], self.coords[:, d])
        pos.setflags(write=False)
        return pos

    @cached_property
    def axis_index_values(self) -> tuple[np.ndarray, ...]:
        """Per axis: the integer indices corresponding to ``axis_values``."""
        out = []
        for d in range(self.dimension):
            vals = self.axis_values[d]
            gaps = np.diff(vals)
            step = np.where(np.isclose(gaps, self.spacing[d], rtol=1e-9, atol=0.0), 1, 2)
            out.append(_readonly(np.concatenate([[0], np.cumsum(step)])))
        return tuple(out)

    @cached_property
    def unit_field(self) -> "FieldEnsemble":
        """The one-field ensemble of ones, whose kernel sums are the white-noise moments."""
        return FieldEnsemble(self, np.ones((1, self.n_voxels)))


@dataclass(frozen=True)
class FieldEnsemble:
    """Ordered sample of lattice fields sharing one voxel set.

    ``values`` has shape (N, n_voxels).  ``signal`` records the per-voxel
    mean that was added during generation (zero if absent); ``rng`` records
    the sampling provenance when the ensemble was simulated.
    """

    domain: VoxelSet
    values: np.ndarray
    rng: "RngSpec | None" = None
    signal: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim == 1:
            vals = vals[None, :]
        if vals.ndim != 2 or vals.shape[1] != self.domain.n_voxels:
            raise ValueError("values must have shape (N, n_voxels)")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", _readonly(vals))
        if self.signal is not None:
            sig = np.asarray(self.signal, dtype=np.float64).ravel()
            if sig.size != self.domain.n_voxels:
                raise ValueError("signal length must match voxel count")
            object.__setattr__(self, "signal", _readonly(sig))

    @property
    def n_fields(self) -> int:
        return self.values.shape[0]

    @cached_property
    def dense(self) -> np.ndarray:
        """Read-only dense subjects-last (m1..mD, N) tensor of the values over the
        domain's axis values, zeros off the set, so contractions sum over the set."""
        data = np.zeros(tuple(a.size for a in self.domain.axis_values) + (self.n_fields,))
        data[tuple(self.domain.axis_positions.T)] = self.values.T
        data.setflags(write=False)
        return data


@dataclass(frozen=True)
class RngSpec:
    """Master seed plus replication stream index.

    ``(seed, stream)`` maps to an independent, reproducible byte stream via
    the seed-sequence spawn-key mechanism, so distinct streams can be drawn
    concurrently without shared state.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name, value in (("seed", self.seed), ("stream", self.stream)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a numpy integer as the int it equals
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.stream < 0:
            raise ValueError("stream index must be non-negative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(ss)

    def substream(self, index: int) -> "RngSpec":
        if self.stream != 0:
            raise ValueError("substreams are derived from the master (stream 0) spec")
        return RngSpec(self.seed, index)


# ---------------------------------------------------------------------------
# Simulation domain presets
# ---------------------------------------------------------------------------

PRESET_NAMES = ("stat1d", "stat2d", "stat3d", "nonstat1d", "nonstat2d", "nonstat3d")

_NONSTAT1D_EXCLUDED = frozenset(
    [2, 4, 8, 9, 11, 15, 20, 21, 22, 40, 41, 42, 43, 44, 45, 60, 62, 64, 65, 98, 99, 100]
)


def _integer_box(lo: float, hi: float, D: int) -> np.ndarray:
    axis = np.arange(math.ceil(lo), math.floor(hi) + 1, dtype=np.float64)
    if D == 1:
        return axis[:, None]
    grids = np.meshgrid(*([axis] * D), indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def _frame_coords(D: int, lo: int, hi: int, rim: tuple[int, ...]) -> np.ndarray:
    full = _integer_box(lo, hi, D)
    rim_set = set(rim)
    keep = np.zeros(full.shape[0], dtype=bool)
    for d in range(D):
        keep |= np.isin(full[:, d], list(rim_set))
    return full[keep]


def make_domain_preset(name: str, fwhm: float | None = None) -> VoxelSet:
    """Build one of the six standard simulation voxel sets.

    Stationary presets expand the box ``[1, L]^D`` by ``a = sqrt(2) f /
    sqrt(log 2)`` in every direction (data is sampled on the expanded set to
    suppress boundary effects) and record the unexpanded box as ``interior``.
    Non-stationary presets keep deliberately ragged supports and carry no
    separate interior.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    if name.startswith("stat"):
        if fwhm is None or not 0 < fwhm < math.inf:
            raise ValueError(f"stationary presets require a finite positive fwhm, got {fwhm}")
        a = math.sqrt(2.0) * fwhm / math.sqrt(math.log(2.0))
        L = 100 if name == "stat1d" else 20
        D = {"stat1d": 1, "stat2d": 2, "stat3d": 3}[name]
        inner = VoxelSet(_integer_box(1, L, D))
        return VoxelSet(_integer_box(1 - a, L + a, D), interior=inner)
    if name == "nonstat1d":
        keep = [v for v in range(1, 101) if v not in _NONSTAT1D_EXCLUDED]
        return VoxelSet(np.asarray(keep, dtype=np.float64)[:, None])
    D = 2 if name == "nonstat2d" else 3
    return VoxelSet(_frame_coords(D, 1, 20, (1, 2, 19, 20)))


def sample_ensemble(
    domain: VoxelSet,
    n: int,
    rng: RngSpec,
    signal: np.ndarray | None = None,
) -> FieldEnsemble:
    """Draw ``n`` i.i.d. standard-normal lattice fields, plus optional mean.

    Generation is a pure function of (domain size, n, rng, signal): the same
    RngSpec always reproduces bit-identical values, and fields are filled in
    index order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if signal is not None:
        signal = np.asarray(signal, dtype=np.float64).ravel()
        if signal.size != domain.n_voxels:
            raise ValueError("signal length must match voxel count")
    noise = rng.generator().standard_normal((n, domain.n_voxels))
    values = noise if signal is None else noise + signal
    return FieldEnsemble(domain, values, rng=rng, signal=signal)
