"""Lipschitz-Killing curvatures of voxel manifolds.

The top curvature is the metric volume of the box union, the next one is
half the metric boundary measure, and in 3D the first curvature is
approximated by its locally stationary form: the edge integral of the
normal-cone angle weighted by metric edge length.  All integrals are
tensor-product trapezoid sums over the refined grid, which are exact for
constant integrands and converge to the integrals as the added resolution
grows.  The zeroth curvature is always the combinatorial Euler
characteristic, never estimated.

The integrals stream over slabs of the grid: runs of whole axis-0 rows of
contiguous grid ids, handed to the engine as a range (on a box grid, known
from its bounds to fill its block), with kernel factors built once per call
or read from a caller that built them once for many calls (``_reading``).
Each slab's moment bundle (with the Hessian moments for the face term) gives
its metric and face-term Christoffel symbols, reduced into the volume, face
and edge sums through its quadrature-table entries and dropped.  The slabs are
the one partition of the grid: they fix the summation order, and their
bound of ``_SLAB_POINTS`` points and of ``_SLAB_ENTRIES`` subject x point
entries (one moment column of an ensemble) fixes the memory and cache
footprint.  The calling thread and one helper, each in a workspace
(``surf._workspace``, 7.5 MB for the 50-subject shell), take the slabs from one
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

from .geometry import (
    _christoffel_expr,
    _metric_expr,
    _moments,
    orthonormal_frame,
    sqrt_det_psd,
    sqrt_det_sub,
    theta_batch,
)
from .kernel import GaussianKernel
from .lattice import FieldEnsemble, VoxelSet
from .manifold import RefinedGrid, VoxelManifold, _added_resolution, euler_characteristic, refined_grid
from .surf import _check_dimensions, _grid_factors, _one_blas_thread, _workspace

__all__ = ["LkcVector", "lkc_compute", "lkc_stationary_closed_form"]

LOG2 = math.log(2.0)
_SLAB_POINTS = 1 << 16  # grid points whose metric one slab thread holds at once
_SLAB_ENTRIES = 1 << 17  # subject x point entries of one moment column of a slab: 1 MiB
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
        D = len(self.values) - 1
        if self.values[D] <= 0 or (D >= 2 and self.values[D - 1] <= 0):
            raise ValueError("top curvatures must be positive")

    @property
    def dimension(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, d: int) -> float:
        return self.values[d]


def _slabs(grid: RefinedGrid, n_fields: int) -> np.ndarray:
    """Slab bounds of an ``n_fields``-field LKC on the grid (``RefinedGrid.slabs``):
    runs of whole axis-0 rows of at most ``min(_SLAB_POINTS, _SLAB_ENTRIES // n_fields)``
    points, where one row does not pass that on its own."""
    return _partition(grid, n_fields)[0]


def _partition(grid: RefinedGrid, n_fields: int) -> tuple:
    """``grid.slabs`` at the point bound of an ``n_fields``-field LKC."""
    return grid.slabs(min(_SLAB_POINTS, _SLAB_ENTRIES // n_fields))


def _boundary_sum(faces: list[dict], lam: np.ndarray) -> tuple[list[float], int]:
    """Per face axis m, the slab's quadrature sum of the metric area element
    of the faces normal to m."""
    D = lam.shape[-1]
    sums, n_bad = [], 0
    for m, table in enumerate(faces):
        sub, bad = sqrt_det_sub(lam[table["ids"]], tuple(d for d in range(D) if d != m))
        n_bad += bad
        sums.append(float(np.sum(table["weights"] * sub)))
    return sums, n_bad


def _edge_sum(edges: list[dict], lam: np.ndarray) -> tuple[list[float], int]:
    """Per tangent axis k (D = 3), the slab's quadrature sum of the
    normal-cone angle against metric edge length."""
    sums, n_bad = [], 0
    for k, table in enumerate(edges):
        lam_pts = lam[table["ids"]]
        theta = theta_batch(lam_pts, k, table["types"], table["refl"])
        length, bad = sqrt_det_sub(lam_pts, (k,))
        n_bad += bad
        sums.append(float(np.sum(table["weights"] * theta * length)))
    return sums, n_bad


def _face_correction(faces: list[dict], lam: np.ndarray, bundle: tuple) -> list[float]:
    """Per face axis m, the slab's quadrature sum of the optional 3-D face
    integrand: the shape-operator trace against metric area (vanishes for
    constant metrics), from the slab's metric and moment bundle (S, Sd, Sdd,
    T2, U2) at the table's ids."""
    sums = []
    for m, table in enumerate(faces):
        ids = table["ids"]
        k, l = tuple(d for d in range(3) if d != m)
        gam = _christoffel_expr(*(b[ids] for b in bundle))
        lam_pts = lam[ids]
        U, V, N = orthonormal_frame(lam_pts, (k, l))
        N = N * table["outward"][:, None]
        integrand = (
            (U[:, k] ** 2 + V[:, k] ** 2) * np.einsum("pd,pd->p", N, gam[:, k, k, :])
            + V[:, l] ** 2 * np.einsum("pd,pd->p", N, gam[:, l, l, :])
            + 2.0 * V[:, k] * V[:, l] * np.einsum("pd,pd->p", N, gam[:, k, l, :])
        )
        area, _ = sqrt_det_sub(lam_pts, (k, l))
        sums.append(float(np.sum(table["weights"] * integrand * area)))
    return sums


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


_given = threading.local()  # per thread, ``_reading``'s operands by grid


@contextmanager
def _reading(grid: RefinedGrid, factors: dict, values: np.ndarray | None = None):
    """In the block, this thread's ``lkc_compute`` calls on ``grid`` read the
    kernel factor matrices ``factors`` (``surf._grid_factors`` of the order and
    pairs the call needs) and, where ``values`` (N, P) is given, copy their
    ensemble's uncentred value column into it: on a one-slab grid, the bits of
    ``t_field_on_grid``'s."""
    outer, _given.operands = getattr(_given, "operands", {}), {grid: (factors, values)}
    try:
        yield
    finally:
        _given.operands = outer


def lkc_compute(source, kernel: GaussianKernel, manifold: VoxelManifold, r: int, *,
                sample_domain: VoxelSet | None = None, grid: RefinedGrid | None = None,
                include_face_term: bool = False) -> LkcVector:
    """Curvatures from the induced metric on the refined grid.

    ``source`` is "white-noise" (deterministic theory values for independent
    unit-variance voxel noise) or a FieldEnsemble (sample-covariance
    estimates).  ``sample_domain`` is the voxel set the kernel sums over
    when it differs from the manifold's own set (the boundary-padded
    presets); an ensemble always sums over its own domain.
    """
    r = _added_resolution(r)
    if r == 0:
        raise ValueError("curvature estimation requires added resolution r >= 1")
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
    hessian = include_face_term and D == 3
    spacing = manifold.domain.spacing / (r + 1)
    ens = source if isinstance(source, FieldEnsemble) else domain.unit_field
    bounds, faces, edges = _partition(grid, ens.n_fields)
    factors, values = getattr(_given, "operands", {}).get(grid, (None, None))
    if factors is None:  # read by every slab
        factors = _grid_factors(kernel, domain, grid, 2 if hessian else 1, ens is not source)

    def slab(j: int) -> tuple:  # slab j's volume, boundary, edge and face sums, repaired points
        start, stop = bounds[j], bounds[j + 1]
        bundle = _moments(source, kernel, domain, hessian, None if values is None else values[:, start:stop],
                          grid=grid, ids=range(start, stop), factors=factors)
        lam = _metric_expr(*bundle[:3])
        dets, n_bad = sqrt_det_psd(lam)
        bnd = edge = face = 0.0  # where the grid has no such stratum or no face term
        if D >= 2:
            bnd, bad = _boundary_sum(faces[j], lam)
            n_bad += bad
        if D == 3:
            edge, bad = _edge_sum(edges[j], lam)
            n_bad += bad
            if hessian:
                face = _face_correction(faces[j], lam, bundle)
        return float(np.sum(grid.vol_weight[start:stop] * dets)), bnd, edge, face, n_bad

    # per-slab quadrature sums added in slab order, scaled by their cell measures at the end
    vol, bnd, edge, face, n_bad = 0.0, np.zeros(D), np.zeros(3), np.zeros(3), 0
    for v, b, e, f, bad in _map_slabs(slab, len(bounds) - 1):
        vol, bnd, edge, face, n_bad = vol + v, bnd + b, edge + e, face + f, n_bad + bad

    face_cell = [np.prod(np.delete(spacing, m)) for m in range(D)]
    L = [0.0] * (D + 1)
    L[0] = euler_characteristic(manifold)
    L[D] = vol * np.prod(spacing)
    if D >= 2:
        L[D - 1] = 0.5 * sum(b * c for b, c in zip(bnd, face_cell))
    if D == 3:
        L[1] = sum(e * h for e, h in zip(edge, spacing)) / (2.0 * math.pi)
        if include_face_term:
            L[1] += sum(f * c for f, c in zip(face, face_cell)) / (2.0 * math.pi)
    return LkcVector(
        values=tuple(float(v) for v in L),
        r=r,
        source="estimate" if ens is source else "white-noise-theory",
        l1_locally_stationary=D == 3,
        diagnostics={"psd_repaired_points": n_bad},
    )


def lkc_stationary_closed_form(sides, fwhm: float) -> LkcVector:
    """Closed-form curvatures of a box under the stationary Gaussian-kernel
    metric: L_d = (4 log 2)^(d/2) * (d-th intrinsic volume) / fwhm^d."""
    sides = [float(s) for s in np.atleast_1d(sides)]
    if any(s <= 0 for s in sides) or len(sides) > 3:
        raise ValueError("sides must be 1..3 positive lengths")
    if fwhm <= 0:
        raise ValueError("fwhm must be positive")
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
