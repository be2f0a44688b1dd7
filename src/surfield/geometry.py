"""Riemannian geometry induced by normalized smoothed fields.

The unit-variance smoothed field induces a metric whose entries are rational
expressions in a handful of inner products among the field, its gradient and
its Hessian.  One builder (``surf._bundle``) fills that bundle (S, Sd,
Sdd[, T2, U2]) entry by entry from ``moment(a, b)``, the inner product of the
derivatives of per-axis orders ``a`` and ``b``.  Two providers supply it:

* white noise, where independence across voxels collapses the double sums
  to single sums of kernel-derivative products (deterministic, the
  theoretical reference): contractions of the domain's ``unit_field``;
* an ensemble, where they are sample covariances of (N, Q) columns, one per
  derivative, each centred over the subjects: contractions of the
  ensemble's own subjects-last data tensor (``FieldEnsemble.dense``).

Both read the sums ``s(a, b=None)`` of the engine ``surf._sums`` chooses;
the white-noise bundle is ``surf._white_noise_moments``, which normalizes
fields.  The curvature integrals read metric and face term from one bundle.

The bundle and the metric are stored components first and exposed as
(..., D, D) views (``surf._components_first``), so every per-entry pass
streams one contiguous column, not a strided slice of the whole array;
``metric_on_grid`` and ``christoffel_on_grid`` results are not C-contiguous.
Moments are written into their columns and the metric is built in place.

Boundary strata read the metric alone: ``orthonormal_frame`` adapts a frame
to a face plane, ``theta_batch`` gives a 3-D edge's angle in closed form.
"""
from __future__ import annotations

from functools import cache
from itertools import combinations_with_replacement

import numpy as np

from .kernel import GaussianKernel
from .lattice import VoxelSet
from .manifold import EdgeType, RefinedGrid
from .surf import (DegenerateFieldError, _bundle, _check_dimensions, _components_first, _sums,
                   _white_noise_moments)

__all__ = [
    "metric",
    "christoffel",
    "metric_on_grid",
    "christoffel_on_grid",
    "orthonormal_frame",
    "theta_angle",
    "sqrt_det_psd",
    "sqrt_det_sub",
]

_EIG_CLIP = 1e-12


# ---------------------------------------------------------------------------
# Moment bundle and the expressions it feeds
# ---------------------------------------------------------------------------
#
# A moment is an inner product  <d^a X, d^b X>  for per-axis derivative order
# tuples a and b: a single sum over voxels of kernel-derivative products for
# white noise, a centred sum over subjects for an ensemble.


def _sample_moment(column, N: int, values: np.ndarray | None = None):
    """moment(a, b, out=None) of an N-field ensemble: the sample covariance,
    with the N-1 denominator, of the (N, Q) columns ``column(a)`` and
    ``column(b)``, each centred in place on first use (the moments are their
    only reader), written into ``out`` when given.  ``values``, an (N, Q)
    array, receives the value column before it is centred."""
    w = 1.0 / (N - 1)

    @cache
    def centred(a: tuple) -> np.ndarray:
        v = column(a)
        if values is not None and not any(a):
            values[...] = v
        v -= v.mean(axis=0)
        return v

    return lambda a, b, out=None: np.multiply(
        np.einsum("np,np->p", centred(a), centred(b), out=out), w, out=out)


def _metric_expr(S, Sd, Sdd) -> np.ndarray:
    """Sdd / S - Sd Sd^T / S^2, computed in that order in each unique (d, e) column."""
    D = Sd.shape[-1]
    S2 = S**2
    lam = _components_first(S.shape, D, D)
    tmp = np.empty_like(S)
    for d, e in combinations_with_replacement(range(D), 2):
        col = np.divide(Sdd[..., d, e], S, out=lam[..., d, e])
        col -= np.divide(np.multiply(Sd[..., d], Sd[..., e], out=tmp), S2, out=tmp)
        lam[..., e, d] = col
    return lam


def _christoffel_expr(S, Sd, Sdd, T2, U2) -> np.ndarray:
    iS = 1.0 / S
    g = (
        T2 * iS[..., None, None, None]
        - U2[..., :, :, None] * Sd[..., None, None, :] * (iS**2)[..., None, None, None]
        - Sd[..., :, None, None] * Sdd[..., None, :, :] * (iS**2)[..., None, None, None]
        - Sd[..., None, :, None] * Sdd[..., :, None, :] * (iS**2)[..., None, None, None]
        + 2.0
        * Sd[..., :, None, None]
        * Sd[..., None, :, None]
        * Sd[..., None, None, :]
        * (iS**3)[..., None, None, None]
    )
    return g


def _moments(source, kernel, domain, hessian, values=None, **at):
    """(S, Sd, Sdd[, T2, U2]) of ``source`` at ``points``, or at the grid
    points ``ids`` (all when None) of ``grid``, passed in ``at``.

    ``source`` is "white-noise" (single sums over ``domain``) or a
    FieldEnsemble (sample covariances over its own domain, its uncentred
    value column copied into ``values`` where given).  Its columns
    cover all the points at once: a caller bounds their entries by the
    points it asks for (``lkc._slabs``).
    """
    if not isinstance(source, str):
        N = source.n_fields
        if N < 2:
            raise DegenerateFieldError("sample-based geometry requires at least two fields")
        _check_dimensions(kernel, {"ensemble's domain": source.domain, "grid": at.get("grid")})
        s = _sums(kernel, source, 2 if hessian else 1, **at)
        bundle = _bundle(_sample_moment(s, N, values), kernel.dimension, hessian)
        if np.any(bundle[0] <= 0):
            raise DegenerateFieldError("zero sample variance at an evaluation point")
        return bundle
    if source != "white-noise":
        raise ValueError(f"unknown geometry source {source!r}")
    if domain is None:
        raise ValueError("white-noise geometry requires a voxel domain")
    _check_dimensions(kernel, {"voxel domain": domain, "grid": at.get("grid")})
    return _white_noise_moments(kernel, domain, hessian, **at)


# ---------------------------------------------------------------------------
# Public metric / Christoffel operations
# ---------------------------------------------------------------------------


def metric(source, kernel: GaussianKernel, domain: VoxelSet | None, x) -> np.ndarray:
    """Induced metric at point(s) x.

    ``source`` is either the string "white-noise" (deterministic single-sum
    path over ``domain``) or a FieldEnsemble (sample covariances of the
    smoothed sample; ``domain`` is not used).
    Returns (D, D) for a single point or (P, D, D) for a batch.
    """
    x = np.asarray(x, dtype=np.float64)
    lam = _metric_expr(*_moments(source, kernel, domain, False, points=np.atleast_2d(x)))
    return lam[0] if x.ndim == 1 else lam


def christoffel(source, kernel: GaussianKernel, domain: VoxelSet | None, x) -> np.ndarray:
    """First-kind Christoffel symbols at point(s) x, shape (..., D, D, D)."""
    x = np.asarray(x, dtype=np.float64)
    g = _christoffel_expr(*_moments(source, kernel, domain, True, points=np.atleast_2d(x)))
    return g[0] if x.ndim == 1 else g


def metric_on_grid(source, kernel: GaussianKernel, grid: RefinedGrid, sample_domain: VoxelSet | None = None,
                   point_ids: np.ndarray | None = None) -> np.ndarray:
    """Metric at all grid points (or a subset), (Q, D, D)."""
    domain = sample_domain or grid.manifold.domain
    return _metric_expr(*_moments(source, kernel, domain, False, grid=grid, ids=point_ids))


def christoffel_on_grid(source, kernel: GaussianKernel, grid: RefinedGrid,
                        sample_domain: VoxelSet | None = None,
                        point_ids: np.ndarray | None = None) -> np.ndarray:
    """Christoffel symbols at all grid points (or a subset), (Q, D, D, D)."""
    domain = sample_domain or grid.manifold.domain
    return _christoffel_expr(*_moments(source, kernel, domain, True, grid=grid, ids=point_ids))


# ---------------------------------------------------------------------------
# Frames and edge angles
# ---------------------------------------------------------------------------


def orthonormal_frame(lam: np.ndarray, I: tuple[int, int]):
    """Metric-orthonormal frame (U, V, N) adapted to the plane spanned by
    coordinate axes ``I = (k, l)`` (k < l), with N proportional to the
    metric-inverse image of the remaining axis.

    Works on a single (3, 3) matrix or a batch (..., 3, 3).
    """
    lam = np.asarray(lam, dtype=np.float64)
    k, l = I
    if not (0 <= k < l <= 2):
        raise ValueError("I must be an ascending pair of axes in 0..2")
    (m,) = set(range(3)) - {k, l}
    lkk = lam[..., k, k]
    lkl = lam[..., k, l]
    lll = lam[..., l, l]
    c = lkk * lll - lkl**2
    if np.any(lkk <= 0) or np.any(c <= 0):
        raise np.linalg.LinAlgError("metric is singular on the requested plane")
    shape = lam.shape[:-2] + (3,)
    U = np.zeros(shape)
    V = np.zeros(shape)
    U[..., k] = 1.0 / np.sqrt(lkk)
    V[..., k] = lkl / np.sqrt(c * lkk)
    V[..., l] = -np.sqrt(lkk / c)
    em = np.zeros(3)
    em[m] = 1.0
    rhs = np.broadcast_to(em, shape)[..., None]
    sol = np.linalg.solve(lam, rhs)[..., 0]
    N = sol / np.sqrt(sol[..., m])[..., None]
    return U, V, N


def theta_angle(
    lam: np.ndarray,
    tangent_axis: int,
    edge_type: EdgeType,
    refl: tuple[int, int] = (1, 1),
) -> np.ndarray:
    """Normal-cone opening contribution of an edge point.

    ``lam`` is the metric at the point(s), (..., 3, 3).  ``refl`` holds the
    +-1 reflections of the two transverse axes (ascending order) that bring
    the occupancy pattern to canonical orientation: solid quadrant at
    (-, -) for convex and double-convex, missing quadrant at (+, +) for
    concave.  Convex edges contribute pi - beta, double-convex -2 beta,
    concave beta - pi.  Returns a scalar for one matrix, else shape (...).
    """
    return theta_batch(np.asarray(lam, dtype=np.float64), tangent_axis, EdgeType(edge_type), refl)[()]


def theta_batch(
    lam: np.ndarray,
    tangent_axis: int,
    types: np.ndarray,
    refl: np.ndarray,
) -> np.ndarray:
    """Vectorized theta over points sharing a tangent axis k.

    ``lam`` (..., 3, 3), ``types`` (...) EdgeType codes, ``refl`` (..., 2).
    The canonical wedge opens at pi minus the metric angle between its face
    conormals lam^-1 e_p and lam^-1 e_q (transverse axes p < q), so cos beta
    = s_p s_q (l_kk l_pq - l_kp l_kq) / sqrt((l_kk l_pp - l_kp^2)(l_kk l_qq
    - l_kq^2)): a reflection (s = -1) of one transverse axis flips its sign.
    """
    k = tangent_axis
    p, q = [d for d in range(3) if d != k]
    lkk = lam[..., k, k]
    minor_p = lkk * lam[..., p, p] - lam[..., k, p] ** 2
    minor_q = lkk * lam[..., q, q] - lam[..., k, q] ** 2
    if not np.all((lkk > 0) & (minor_p > 0) & (minor_q > 0)):
        raise np.linalg.LinAlgError("metric is singular on a face plane of the edge")
    cross = lkk * lam[..., p, q] - lam[..., k, p] * lam[..., k, q]
    cosb = np.prod(refl, axis=-1) * cross / np.sqrt(minor_p * minor_q)
    beta = np.arccos(np.clip(cosb, -1.0, 1.0))
    # convex pi - beta, double-convex -2 beta, concave -(pi - beta)
    out = np.where(types == EdgeType.DOUBLE_CONVEX, -2.0 * beta, np.pi - beta)
    return np.where(types == EdgeType.CONCAVE, -out, out)


# ---------------------------------------------------------------------------
# Determinants with PSD repair
# ---------------------------------------------------------------------------


def _closed_det(lam: np.ndarray) -> np.ndarray:
    D = lam.shape[-1]
    if D == 1:
        return lam[..., 0, 0].copy()
    if D == 2:
        return lam[..., 0, 0] * lam[..., 1, 1] - lam[..., 0, 1] ** 2
    a, b, c = lam[..., 0, 0], lam[..., 0, 1], lam[..., 0, 2]
    d, e, f = lam[..., 1, 1], lam[..., 1, 2], lam[..., 2, 2]
    return a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)


def _is_pd(lam: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Sylvester's criterion; ``det = _closed_det(lam)`` is the last minor."""
    ok = lam[..., 0, 0] > 0
    if lam.shape[-1] == 3:
        ok &= lam[..., 0, 0] * lam[..., 1, 1] - lam[..., 0, 1] ** 2 > 0
    return ok & (det > 0)


def sqrt_det_psd(lam: np.ndarray) -> tuple[np.ndarray, int]:
    """sqrt(det) of symmetric matrices, clipping eigenvalues at 1e-12 where
    finite-sample noise made a matrix indefinite.  Returns (values, n_repaired)."""
    lam = np.asarray(lam)
    det = _closed_det(lam)
    bad = ~_is_pd(lam, det)
    n_bad = int(bad.sum())
    if n_bad:
        ev = np.linalg.eigvalsh(lam[bad])
        det[bad] = np.prod(np.maximum(ev, _EIG_CLIP), axis=-1)
    return np.sqrt(np.maximum(det, 0.0)), n_bad


def sqrt_det_sub(lam: np.ndarray, axes: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """sqrt(det) of the submatrix on the given axes, with the same repair."""
    idx = np.asarray(axes)
    sub = lam[..., idx[:, None], idx[None, :]]
    return sqrt_det_psd(sub)
