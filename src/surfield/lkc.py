"""Lipschitz-Killing curvatures of voxel manifolds.

The top curvature is the metric volume of the box union, the next one is
half the metric boundary measure, and in 3D the first curvature is
approximated by its locally stationary form: the edge integral of the
normal-cone angle weighted by metric edge length.  All integrals are
tensor-product trapezoid sums over the refined grid, which are exact for
constant integrands and converge to the integrals as the added resolution
grows.  The zeroth curvature is always the combinatorial Euler
characteristic, never estimated.  On the ragged nonstat3d shell the locally
stationary L_1 is about twice the one a fit of simulated excursion-set Euler
characteristics gives (``scripts/ec_oracle.py``), while L_2 and L_3 agree.

The integrals stream over slabs of the grid: runs of whole axis-0 rows of
contiguous grid ids, handed to the engine as a range, which contracts the
slab's rows along axis 0 once and writes its present keys, with kernel
factors built once per call.  A caller may keep the uncentred value column
of an ensemble whose partition of its grid is one slab (``_reading``).
Each slab's moment bundle (S, Sd, Sdd) gives its metric, reduced into the
volume sum and dropped once the slab has gathered the entries its boundary
points read into one per-call array (``RefinedGrid.slabs``), on which each
face and edge table is integrated once, after the slabs.
The slabs are the one partition of the grid: they fix the summation order,
and their bound of ``_SLAB_POINTS`` points and of ``_SLAB_ENTRIES`` subject x
point entries (one moment column of an ensemble) fixes the memory and cache
footprint.  The calling thread and one helper, each in a workspace
(``surf._workspace``, 9.7 MB for the 50-subject shell), take the slabs from one
iterator, numpy's OpenBLAS at one thread meanwhile (``surf._one_blas_thread``,
a process-wide switch); adding the slab sums in slab order keeps every bit.
"""
from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field as dc_field

import numpy as np

from .geometry import _metric_expr, _moments, sqrt_det_psd, sqrt_det_sub, theta_batch
from .kernel import GaussianKernel
from .lattice import FieldEnsemble, VoxelSet
from .manifold import RefinedGrid, VoxelManifold, _added_resolution, euler_characteristic, refined_grid
from .surf import _check_dimensions, _grid_factors, _one_blas_thread, _workspace

__all__ = ["LkcVector", "lkc_compute", "lkc_stationary_closed_form"]

LOG2 = math.log(2.0)
_SLAB_POINTS = 1 << 16  # grid points whose metric one slab thread holds at once
_SLAB_ENTRIES = 3 << 16  # subject x point entries of one moment column of a slab: 1.5 MiB
_SLAB_THREADS = 2  # the calling thread and at most one helper share a call's slabs


@dataclass(frozen=True)
class LkcVector:
    """Curvatures L_0..L_D with provenance.

    ``l1_locally_stationary`` marks a 3-D L_1 computed from the edge term
    only (the face and curvature-tensor corrections dropped).
    """

    values: tuple[float, ...]
    r: int | None
    source: str
    l1_locally_stationary: bool = False
    diagnostics: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        _check_curvatures(self.values, "an LkcVector")

    @property
    def dimension(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, d: int) -> float:
        return self.values[d]


def _check_curvatures(values, name: str) -> tuple[float, ...]:
    """``values`` (L_0, .., L_D) as floats, refused unless finite with L_D > 0 and, for D >= 2,
    L_(D-1) > 0, D the last nonzero index: trailing zeros are a lower-dimensional set."""
    values = tuple(float(v) for v in values)
    if not values or not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be finite numbers L_0, .., L_D, got {values}")
    D = max((d for d, v in enumerate(values) if v != 0), default=0)
    if values[D] < 0 or (D >= 2 and values[D - 1] <= 0):
        raise ValueError(f"{name} needs L_D > 0 and, for D >= 2, L_(D-1) > 0, got {values}")
    return values


def _slabs(grid: RefinedGrid, n_fields: int) -> np.ndarray:
    """Slab bounds of an ``n_fields``-field LKC on the grid (``RefinedGrid.slabs``):
    runs of whole axis-0 rows of at most ``min(_SLAB_POINTS, _SLAB_ENTRIES // n_fields)``
    points, where one row does not pass that on its own."""
    return _partition(grid, n_fields)[0]


def _partition(grid: RefinedGrid, n_fields: int) -> tuple:
    """``grid.slabs`` at the point bound of an ``n_fields``-field LKC."""
    return grid.slabs(min(_SLAB_POINTS, _SLAB_ENTRIES // n_fields))


def _strata_sums(tables: list[dict], entries: np.ndarray) -> tuple[list[float], int]:
    """Per merged strata table (``RefinedGrid.slabs``), on the metric ``entries`` the slabs gathered,
    the quadrature sum of the area element over faces, of the normal-cone angle against edge
    length over edges: each slab's segment summed in table order, added in slab order."""
    sums, n_bad = [], 0
    for t in tables:
        k, n = len(t["axes"]), len(t["weights"])
        lam = np.moveaxis(entries[t["start"]:t["start"] + k * k * n].reshape(k, k, n), (0, 1), (-2, -1))
        if "tangent" in t:
            theta = theta_batch(lam, t["tangent"], t["types"], t["refl"])
            length, bad = sqrt_det_sub(lam, (t["tangent"],))
            terms = t["weights"] * theta * length
        else:
            area, bad = sqrt_det_psd(lam)
            terms = t["weights"] * area
        n_bad += bad
        total = 0.0
        for lo, hi in zip(t["cuts"][:-1], t["cuts"][1:]):
            total += float(np.sum(terms[lo:hi]))
        sums.append(total)
    return sums, n_bad


def _map_slabs(fn, n: int) -> list:
    """[fn(0), .., fn(n - 1)], the indices taken from one iterator by the
    calling thread and, where ``_SLAB_THREADS``, the cores and
    ``surf._one_blas_thread`` allow, one helper, each in a workspace, BLAS at
    one thread meanwhile.  The lowest failing index's error is raised, as the
    serial loop raises it."""
    cores = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    with nullcontext(False) if min(_SLAB_THREADS, len(cores), n) < 2 else _one_blas_thread() as switched:
        out, it = [None] * n, iter(range(n))

        def work():
            with _workspace():
                for j in it:
                    try:
                        out[j] = fn(j)
                    except BaseException as e:
                        out[j] = e
                        list(it)  # no thread takes a further index

        helpers = [threading.Thread(target=work)] if switched else []
        for helper in helpers:
            helper.start()
        work()
        for helper in helpers:
            helper.join()
    errors = [x for x in out if isinstance(x, BaseException)]
    if errors:
        raise errors[0]
    return out


_watched = threading.local()  # per thread, the grid of ``_reading``'s block and its list


@contextmanager
def _reading(grid: RefinedGrid):
    """In the block, each ensemble ``lkc_compute`` call of this thread on ``grid`` whose
    partition is one slab appends, once done, an uncentred copy of its value column (N, P),
    with the grid engine's bits, to the list yielded.  Nested blocks restore the outer one."""
    outer, _watched.on = getattr(_watched, "on", None), (grid, [])
    try:
        yield _watched.on[1]
    finally:
        _watched.on = outer


def lkc_compute(source, kernel: GaussianKernel, manifold: VoxelManifold, r: int, *,
                sample_domain: VoxelSet | None = None, grid: RefinedGrid | None = None) -> LkcVector:
    """Curvatures from the induced metric on the refined grid.

    ``source`` is "white-noise" (deterministic theory values for independent
    unit-variance voxel noise) or a FieldEnsemble (sample-covariance
    estimates).  ``sample_domain`` is the voxel set the kernel sums over
    when it differs from the manifold's own set (the boundary-padded
    presets); an ensemble always sums over its own domain.
    """
    r = _added_resolution(r, lattice=False)  # curvatures need a refined grid
    if isinstance(source, FieldEnsemble):
        if source.n_fields < 2:
            raise ValueError("ensemble curvature estimation requires N >= 2")
        sample_domain = source.domain  # the ensemble's own domain carries the data
    _check_dimensions(kernel, {"manifold": manifold, "sample domain": sample_domain})
    if grid is None:
        grid = refined_grid(manifold, r)
    elif grid.r != r or grid.manifold is not manifold:
        raise ValueError("provided grid does not match manifold/r")
    D = manifold.dimension
    domain = sample_domain or manifold.domain
    spacing = manifold.domain.spacing / (r + 1)
    ens = source if isinstance(source, FieldEnsemble) else domain.unit_field
    bounds, strata = _partition(grid, ens.n_fields)
    factors = _grid_factors(kernel, domain, grid, 1, ens is not source)  # read by every slab
    watched, values = getattr(_watched, "on", None), None
    if watched and watched[0] is grid and ens is source and len(bounds) == 2:
        values = np.empty((ens.n_fields, grid.n_points))
    entries = np.empty(strata["size"])  # the metric entries the boundary strata read

    def slab(j: int) -> tuple:  # slab j's volume sum and repaired points, its strata entries gathered
        start, stop = bounds[j], bounds[j + 1]
        lam = _metric_expr(*_moments(source, kernel, domain, values, grid=grid, ids=range(start, stop),
                                     factors=factors))
        entries[strata["put"][j]] = np.moveaxis(lam, (-2, -1), (0, 1)).reshape(-1)[strata["take"][j]]
        dets, n_bad = sqrt_det_psd(lam)
        return float(np.sum(grid.vol_weight[start:stop] * dets)), n_bad

    # per-slab volume sums added in slab order, then the strata's, all scaled by their cell measures
    vol, n_bad = 0.0, 0
    for v, bad in _map_slabs(slab, len(bounds) - 1):
        vol, n_bad = vol + v, n_bad + bad
    sums, strata_bad = _strata_sums(strata["tables"], entries) if D >= 2 else ([], 0)
    if values is not None:
        watched[1].append(values)

    face_cell = [np.prod(np.delete(spacing, m)) for m in range(D)]
    L = [0.0] * (D + 1)
    L[0] = euler_characteristic(manifold)
    L[D] = vol * np.prod(spacing)
    if D >= 2:
        L[D - 1] = 0.5 * sum(b * c for b, c in zip(sums[:D], face_cell))
    if D == 3:
        L[1] = sum(e * h for e, h in zip(sums[D:], spacing)) / (2.0 * math.pi)
    return LkcVector(
        values=tuple(float(v) for v in L),
        r=r,
        source="estimate" if ens is source else "white-noise-theory",
        l1_locally_stationary=D == 3,
        diagnostics={"psd_repaired_points": n_bad + strata_bad},
    )


def lkc_stationary_closed_form(sides, fwhm: float) -> LkcVector:
    """Closed-form curvatures of a box under the stationary Gaussian-kernel
    metric: L_d = (4 log 2)^(d/2) * (d-th intrinsic volume) / fwhm^d."""
    sides = [float(s) for s in np.atleast_1d(sides)]
    if any(s <= 0 for s in sides) or len(sides) > 3:
        raise ValueError("sides must be 1..3 positive lengths")
    if not 0 < fwhm < math.inf:
        raise ValueError(f"fwhm must be positive and finite, got {fwhm}")
    D = len(sides)
    scale = math.sqrt(4.0 * LOG2) / fwhm
    a = sides + [0.0, 0.0]
    intrinsic = {1: [1.0, a[0]], 2: [1.0, a[0] + a[1], a[0] * a[1]], 3: [
        1.0,
        a[0] + a[1] + a[2],
        a[0] * a[1] + a[0] * a[2] + a[1] * a[2],
        a[0] * a[1] * a[2],
    ]}[D]
    values = tuple(intrinsic[d] * scale**d for d in range(D + 1))
    return LkcVector(values=values, r=None, source="stationary-closed-form")
