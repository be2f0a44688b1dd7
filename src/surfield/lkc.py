"""Lipschitz-Killing curvatures of voxel manifolds.

The top curvature is the metric volume of the box union, the next one is
half the metric boundary measure, and in 3D the first curvature is
approximated by its locally stationary form: the edge integral of the
normal-cone angle weighted by metric edge length.  All integrals are
tensor-product trapezoid sums over the refined grid, which are exact for
constant integrands and converge to the integrals as the added resolution
grows.  The zeroth curvature is always the combinatorial Euler
characteristic, never estimated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .geometry import (
    christoffel_on_grid,
    metric_on_grid,
    orthonormal_frame,
    sqrt_det_psd,
    sqrt_det_sub,
    theta_batch,
)
from .kernel import GaussianKernel
from .lattice import FieldEnsemble, VoxelSet
from .manifold import RefinedGrid, VoxelManifold, euler_characteristic, refined_grid

__all__ = ["LkcVector", "lkc_compute", "lkc_stationary_closed_form"]

LOG2 = math.log(2.0)


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


def _volume_sum(grid: RefinedGrid, lam: np.ndarray) -> tuple[float, int]:
    dets, n_bad = sqrt_det_psd(lam)
    dom = grid.manifold.domain
    cell = np.prod(dom.spacing / (grid.r + 1))
    return float(np.sum(grid.vol_weight * dets) * cell), n_bad


def _boundary_sum(grid: RefinedGrid, lam: np.ndarray) -> tuple[float, int]:
    """Half the metric boundary measure via the per-face quadrature tables."""
    dom = grid.manifold.domain
    D = grid.dimension
    total = 0.0
    n_bad = 0
    for m in range(D):
        table = grid.face_tables[m]
        if table["ids"].size == 0:
            continue
        I = tuple(d for d in range(D) if d != m)
        if I:
            sub, bad = sqrt_det_sub(lam[table["ids"]], I)
            n_bad += bad
        else:  # D == 1: zero-dimensional boundary points
            sub = np.ones(table["ids"].size)
        cell = np.prod(dom.spacing[list(I)] / (grid.r + 1)) if I else 1.0
        total += float(np.sum(table["weights"] * sub) * cell)
    return 0.5 * total, n_bad


def _edge_sum(grid: RefinedGrid, lam: np.ndarray) -> tuple[float, int]:
    """Locally stationary first curvature for D = 3: (1/2pi) times the edge
    integral of the normal-cone angle against metric length."""
    dom = grid.manifold.domain
    total = 0.0
    n_bad = 0
    for table in grid.edge_tables:
        ids = table["ids"]
        if ids.size == 0:
            continue
        k = table["tangent"]
        lam_pts = lam[ids]
        theta = theta_batch(lam_pts, k, table["types"], table["refl"])
        length, bad = sqrt_det_sub(lam_pts, (k,))
        n_bad += bad
        total += float(
            np.sum(table["weights"] * theta * length) * (dom.spacing[k] / (grid.r + 1))
        )
    return total / (2.0 * math.pi), n_bad


def _face_correction(
    grid: RefinedGrid,
    lam: np.ndarray,
    source,
    kernel: GaussianKernel,
    sample_domain: VoxelSet | None,
) -> float:
    """Optional 3-D face integral of the shape-operator trace against metric
    area (off by default; vanishes for constant metrics)."""
    dom = grid.manifold.domain
    total = 0.0
    for m in range(3):
        table = grid.face_tables[m]
        ids = table["ids"]
        if ids.size == 0:
            continue
        k, l = tuple(d for d in range(3) if d != m)
        uniq, inv = np.unique(ids, return_inverse=True)
        gam_u = christoffel_on_grid(source, kernel, grid, sample_domain, point_ids=uniq)
        gam = gam_u[inv]
        lam_pts = lam[ids]
        U, V, N = orthonormal_frame(lam_pts, (k, l))
        N = N * table["outward"][:, None]
        integrand = (
            (U[:, k] ** 2 + V[:, k] ** 2) * np.einsum("pd,pd->p", N, gam[:, k, k, :])
            + V[:, l] ** 2 * np.einsum("pd,pd->p", N, gam[:, l, l, :])
            + V[:, k] * V[:, l] * np.einsum("pd,pd->p", N, gam[:, k, l, :])
        )
        area, _ = sqrt_det_sub(lam_pts, (k, l))
        cell = dom.spacing[k] * dom.spacing[l] / (grid.r + 1) ** 2
        total += float(np.sum(table["weights"] * integrand * area) * cell)
    return total / (2.0 * math.pi)


def lkc_compute(
    source,
    kernel: GaussianKernel,
    manifold: VoxelManifold,
    r: int,
    *,
    sample_domain: VoxelSet | None = None,
    grid: RefinedGrid | None = None,
    include_face_term: bool = False,
) -> LkcVector:
    """Curvatures from the induced metric on the refined grid.

    ``source`` is "white-noise" (deterministic theory values for independent
    unit-variance voxel noise) or a FieldEnsemble (sample-covariance
    estimates).  ``sample_domain`` is the voxel set the kernel sums over
    when it differs from the manifold's own set (the boundary-padded
    presets); an ensemble always sums over its own domain.
    """
    if r == 0:
        raise ValueError("curvature estimation requires added resolution r >= 1")
    if isinstance(source, FieldEnsemble):
        if source.n_fields < 2:
            raise ValueError("ensemble curvature estimation requires N >= 2")
        sample_domain = None  # the ensemble's own domain carries the data
        src_tag = "estimate"
    else:
        src_tag = "white-noise-theory"
    if grid is None:
        grid = refined_grid(manifold, r)
    elif grid.r != r or grid.manifold is not manifold:
        raise ValueError("provided grid does not match manifold/r")
    D = manifold.dimension
    lam = metric_on_grid(source, kernel, grid, sample_domain)

    n_bad = 0
    l_top, bad = _volume_sum(grid, lam)
    n_bad += bad
    values = [0.0] * (D + 1)
    values[D] = l_top
    if D >= 2:
        l_bnd, bad = _boundary_sum(grid, lam)
        n_bad += bad
        values[D - 1] = l_bnd
    locally_stationary = False
    if D == 3:
        l1, bad = _edge_sum(grid, lam)
        n_bad += bad
        if include_face_term:
            l1 += _face_correction(grid, lam, source, kernel, sample_domain)
        values[1] = l1
        locally_stationary = True
    values[0] = float(euler_characteristic(manifold))
    return LkcVector(
        values=tuple(values),
        r=r,
        source=src_tag,
        l1_locally_stationary=locally_stationary,
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
