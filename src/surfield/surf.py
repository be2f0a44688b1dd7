"""Super-resolution field evaluation.

A lattice field X on a voxel set smoothed by a kernel K defines the
continuous field  X~(x) = sum_v K(x, v) X(v),  evaluable (with exact
derivatives) at any point.  This module evaluates single fields, ensembles,
the normalized variant (unit pointwise variance), covariances, and the
one-sample t-statistic field, in batched/columnar form.

Two engines back every kernel sum.  At arbitrary points, one sweep over the
kernel design (K, grad K and Hess K for a slab of points x all voxels) gives
the smoothed fields and, through its inner products over voxels, the
normalization.  On (subsets of) the tensor-product grids that the curvature
and simulation pipelines evaluate on, one separable helper contracts a data
tensor with a kernel-factor matrix per axis for each derivative multi-index.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement, permutations

import numpy as np

from .kernel import GaussianKernel
from .lattice import FieldEnsemble, VoxelSet
from .manifold import RefinedGrid

__all__ = [
    "SurfSpec",
    "DegenerateFieldError",
    "surf_eval",
    "surf_covariance",
    "t_field",
    "smooth_on_grid",
]

_CHUNK_CELLS = 4_000_000  # max point x voxel x design-column entries per design slab


class DegenerateFieldError(ValueError):
    """A pointwise variance or normalization denominator vanished."""


@dataclass(frozen=True)
class SurfSpec:
    """An ensemble (or single field) together with its smoothing kernel.

    ``normalized`` divides evaluations by the pointwise standard deviation
    of the smoothed field under independent unit-variance voxel noise,
    giving a unit-variance field.
    """

    ensemble: FieldEnsemble
    kernel: GaussianKernel
    normalized: bool = False

    def __post_init__(self):
        if self.kernel.dimension != self.ensemble.domain.dimension:
            raise ValueError("kernel and ensemble dimensions disagree")


# ---------------------------------------------------------------------------
# Generic chunked engine
# ---------------------------------------------------------------------------


def _chunks(n: int, m: int):
    size = max(1, _CHUNK_CELLS // max(m, 1))
    for s in range(0, n, size):
        yield slice(s, min(s + size, n))


_ORDERS = ("value", "gradient", "hessian")


def _design(kernel: GaussianKernel, domain: VoxelSet, points: np.ndarray, order: int):
    """Kernel design slabs over the domain's voxels: yields (slab slice,
    (K, grad K, Hess K)) with shapes (p, M), (p, M, D), (p, M, D, D) and the
    derivatives above ``order`` None.  A slab holds at most _CHUNK_CELLS
    point x voxel x design-column entries."""
    D = kernel.dimension
    width = (1, 1 + D, 1 + D + D * D)[order]
    vox = domain.coords
    for sl in _chunks(points.shape[0], vox.shape[0] * width):
        yield sl, kernel._pairwise(points[sl], vox, order)


def _inner_products(K, G=None, H=None) -> tuple:
    """Single sums over the voxel axis of one design slab: (S,), (S, Sd, Sdd)
    or (S, Sd, Sdd, T2, U2) with S = <K, K>, Sd = <K, dK>, Sdd = <dK, dK>,
    T2 = <ddK, dK> and U2 = <ddK, K> per point."""
    S = np.einsum("pm,pm->p", K, K)
    if G is None:
        return (S,)
    Gt = G.transpose(0, 2, 1)
    out = (S, np.matmul(Gt, K[..., None])[..., 0], np.matmul(Gt, G))
    if H is None:
        return out
    p, M, D = G.shape
    Ht = H.reshape(p, M, D * D).transpose(0, 2, 1)
    T2 = np.matmul(Ht, G).reshape(p, D, D, D)
    U2 = np.matmul(Ht, K[..., None]).reshape(p, D, D)
    return out + (T2, U2)


def _contract_voxels(X: np.ndarray, design: np.ndarray) -> np.ndarray:
    """sum_m X[n, m] design[p, m, ...] as one matrix product over the voxel
    axis, shape (N, p, ...)."""
    p, M = design.shape[:2]
    out = X @ design.reshape(p, M, -1).transpose(1, 0, 2).reshape(M, -1)
    return out.reshape((X.shape[0],) + (p,) + design.shape[2:])


def _eval_arrays(spec: SurfSpec, points: np.ndarray, order: str, field: int | None = None):
    """(val, grad, hess) of the smoothed field(s) from one kernel-design
    sweep; the derivatives above ``order`` are None.  The normalization
    reads the design's inner products: sigma^2 = S, grad sigma^2 = 2 Sd,
    Hess sigma^2 = 2 (U2 + Sdd)."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not np.all(np.isfinite(points)):
        raise ValueError("query points must be finite")
    X = spec.ensemble.values if field is None else spec.ensemble.values[[field]]
    N, P, D = X.shape[0], points.shape[0], spec.kernel.dimension
    n = _ORDERS.index(order)
    val = np.empty((N, P))
    grad = np.empty((N, P, D)) if n >= 1 else None
    hess = np.empty((N, P, D, D)) if n == 2 else None
    for sl, des in _design(spec.kernel, spec.ensemble.domain, points, n):
        v = _contract_voxels(X, des[0])
        if spec.normalized:
            ip = _inner_products(*des[: n + 1])
            if np.any(ip[0] < 1e-30):
                raise DegenerateFieldError("normalization denominator vanished at a query point")
            sig = np.sqrt(ip[0])
        val[:, sl] = v / sig if spec.normalized else v
        if grad is not None:
            gg = g = _contract_voxels(X, des[1])
            if spec.normalized:
                dsig = ip[1] / sig[:, None]
                g = g / sig[None, :, None] - v[:, :, None] * dsig[None] / ip[0][None, :, None]
            grad[:, sl] = g
        if hess is not None:
            hh = _contract_voxels(X, des[2])
            if spec.normalized:
                ddsig = (ip[4] + ip[2]) / sig[:, None, None] - (
                    dsig[:, :, None] * dsig[:, None, :]
                ) / sig[:, None, None]
                s = sig[None, :, None, None]
                hh = (
                    hh / s
                    - (gg[:, :, :, None] * dsig[None, :, None, :]) / s**2
                    - (gg[:, :, None, :] * dsig[None, :, :, None]) / s**2
                    - v[:, :, None, None] * ddsig[None] / s**2
                    + 2.0 * v[:, :, None, None] * (dsig[:, :, None] * dsig[:, None, :])[None] / s**3
                )
            hess[:, sl] = hh
    return val, grad, hess


def surf_eval(
    spec: SurfSpec,
    points: np.ndarray,
    order: str = "value",
    field: int | None = None,
) -> np.ndarray:
    """Evaluate the smoothed field(s) at arbitrary points.

    Returns, with P points, N fields and dimension D:
      order='value'    -> (N, P)            (or (P,) when ``field`` given)
      order='gradient' -> (N, P, D)
      order='hessian'  -> (N, P, D, D)
    """
    if order not in _ORDERS:
        raise ValueError(f"unknown order {order!r}")
    out = _eval_arrays(spec, points, order, field)[_ORDERS.index(order)]
    return out[0] if field is not None else out


def surf_covariance(
    kernel: GaussianKernel,
    domain: VoxelSet,
    x: np.ndarray,
    y: np.ndarray,
) -> float:
    """Covariance of the smoothed field between two points under
    independent unit-variance voxel noise: the single sum over voxels
    sum_v K(x, v) K(y, v).
    """
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    y = np.asarray(y, dtype=np.float64).reshape(1, -1)
    kx = kernel.pairwise_value(x, domain.coords)[0]
    ky = kernel.pairwise_value(y, domain.coords)[0]
    return float(kx @ ky)


# ---------------------------------------------------------------------------
# t-statistic field
# ---------------------------------------------------------------------------


def _t_from_arrays(val: np.ndarray, grad: np.ndarray | None = None, hess: np.ndarray | None = None):
    """sqrt(N) * mean / sd with its exact quotient-rule gradient and Hessian
    (None when the field derivative is None); val is (N, P)."""
    N = val.shape[0]
    if N < 2:
        raise DegenerateFieldError("t statistic requires at least two fields")
    mean = val.mean(axis=0)
    resid = val - mean
    s2 = np.einsum("np,np->p", resid, resid) / (N - 1)
    if np.any(s2 <= 0):
        raise DegenerateFieldError("zero sample variance at a query point")
    sd = np.sqrt(s2)
    t = np.sqrt(N) * mean / sd
    if grad is None:
        return t, None, None
    gmean = grad.mean(axis=0)
    gresid = grad - gmean
    # d(sd)/dx = cov(X~, dX~)/sd  with the same N-1 denominator
    ds = np.einsum("np,npd->pd", resid, gresid) / ((N - 1) * sd[:, None])
    gt = np.sqrt(N) * (gmean * sd[:, None] - mean[:, None] * ds) / s2[:, None]
    if hess is None:
        return t, gt, None
    # dd(sd) = (cov(dX~, dX~) + cov(X~, ddX~)) / sd - d(sd) d(sd)^T / sd
    cov = (np.einsum("npd,npe->pde", gresid, gresid)
           + np.einsum("np,npde->pde", resid, hess - hess.mean(axis=0))) / (N - 1)
    dds = (cov - ds[:, :, None] * ds[:, None, :]) / sd[:, None, None]
    cross = gmean[:, :, None] * ds[:, None, :]
    ht = np.sqrt(N) * (
        hess.mean(axis=0) / sd[:, None, None]
        - (cross + cross.transpose(0, 2, 1) + mean[:, None, None] * dds) / s2[:, None, None]
        + 2.0 * (mean / (s2 * sd))[:, None, None] * ds[:, :, None] * ds[:, None, :]
    )
    return t, gt, ht


def t_field(spec: SurfSpec, points: np.ndarray, order: str = "value"):
    """One-sample t statistic of the smoothed ensemble at the given points.

    Normalization of the fields cancels out of the statistic, so evaluation
    uses the raw smoothed fields.  Returns (P,) values or (P, D) gradients;
    order='both' returns the pair.
    """
    if order not in ("value", "gradient", "both"):
        raise ValueError(f"unknown order {order!r}")
    raw = SurfSpec(spec.ensemble, spec.kernel)  # scale invariance: skip normalization
    t, gt, _ = _t_from_arrays(*_eval_arrays(raw, points, "value" if order == "value" else "gradient"))
    if order == "value":
        return t
    if order == "gradient":
        return gt
    return t, gt


# ---------------------------------------------------------------------------
# Tensor-grid engine
# ---------------------------------------------------------------------------


def _padded_data_tensor(domain: VoxelSet, values: np.ndarray) -> np.ndarray:
    """Embed (N, n_voxels) values into the dense (N, m1..mD) tensor over the
    domain's axis values (zeros off the voxel set), so separable contractions
    sum exactly over the set."""
    shape = tuple(a.size for a in domain.axis_values)
    data = np.zeros((values.shape[0],) + shape)
    data[(slice(None),) + tuple(domain.axis_positions.T)] = values
    return data


def _contract(data: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
    """Apply per-axis smoothing matrices to (N, m1..mD) data."""
    out = data
    D = len(mats)
    for d in range(D):
        out = np.moveaxis(np.tensordot(mats[d], out, axes=(1, d + 1)), 0, d + 1)
    return out


def _unit(D: int, *axes: int) -> tuple:
    """Per-axis derivative orders of the derivative along ``axes``."""
    out = [0] * D
    for a in axes:
        out[a] += 1
    return tuple(out)


def _grid_sums(kernel: GaussianKernel, domain: VoxelSet, values: np.ndarray, grid: RefinedGrid,
               ids=None):
    """s(a, b=None): the (N, m1..mD) data tensor of ``values`` over ``domain``
    contracted along each axis d with the kernel factor of derivative order
    a[d] (times the factor of order b[d]) and gathered at the grid points
    ``ids`` (all when None), shape (N, Q).  With ``ids``, only the axis-0
    grid rows those points touch are contracted."""
    D, N = domain.dimension, values.shape[0]
    data = _padded_data_tensor(domain, values)
    axes = tuple(grid.axis_positions(ids))
    rows = slice(None)
    if ids is not None and len(axes[0]):
        lo = int(axes[0].min())
        rows = slice(lo, int(axes[0].max()) + 1)
        axes = (axes[0] - lo,) + axes[1:]

    @cache
    def flat_index(shape: tuple, strides: tuple) -> tuple:
        """Axis order of a (m1..mD) array's memory layout and the flat
        positions of ``axes`` in it."""
        perm = np.argsort([-st for st in strides], kind="stable")
        return perm, np.ravel_multi_index(tuple(axes[p] for p in perm), tuple(np.take(shape, perm)))

    @cache
    def factor(d: int, order: int) -> np.ndarray:
        t = grid.axis_coords[d][rows if d == 0 else slice(None), None] - domain.axis_values[d]
        return kernel.axis_factor(d, t, order)

    def s(a: tuple, b: tuple | None = None) -> np.ndarray:
        mats = [factor(d, a[d]) if b is None else factor(d, a[d]) * factor(d, b[d])
                for d in range(D)]
        out = _contract(data, mats)
        if N > 1:
            return out[(slice(None),) + axes]
        # One field: a flat take in memory order, an exact copy of the
        # per-axis gather at a fraction of its cost.
        perm, idx = flat_index(out.shape[1:], out.strides[1:])
        return out[0].transpose(perm).reshape(-1).take(idx).reshape(1, -1)

    return s


def _grid_arrays(ensemble: FieldEnsemble, kernel: GaussianKernel, grid: RefinedGrid,
                 derivatives: int, ids=None):
    """(val, grad, hess) of the smoothed fields at the grid points ``ids``
    (all when None), one separable contraction per derivative multi-index;
    the derivatives above ``derivatives`` are None."""
    D = kernel.dimension
    s = _grid_sums(kernel, ensemble.domain, ensemble.values, grid, ids)
    # The value stays the gathered (column-major) array: its layout sets the
    # summation order of the t statistic computed from it.
    out = [s(_unit(D))]
    for n in range(1, derivatives + 1):
        out.append(np.empty(out[0].shape + (D,) * n))
        for axes in combinations_with_replacement(range(D), n):
            first, *rest = [(Ellipsis,) + p for p in set(permutations(axes))]
            out[n][first] = s(_unit(D, *axes))
            for idx in rest:
                out[n][idx] = out[n][first]
    return tuple(out) + (None,) * (2 - derivatives)


def smooth_on_grid(
    ensemble: FieldEnsemble,
    kernel: GaussianKernel,
    grid: RefinedGrid,
    derivatives: int = 0,
) -> dict[str, np.ndarray]:
    """Smoothed fields (and exact derivatives) at every grid point.

    Exploits kernel separability: the data tensor is contracted with one
    smoothing matrix per axis, then gathered at the grid's points.  Returns
    'value': (N, P) plus, if requested, 'grad': (N, P, D) and
    'hess': (N, P, D, D).

    The separable path cannot express a Euclidean truncation radius exactly,
    so truncated kernels must use the generic point path.
    """
    if kernel.truncation is not None:
        raise NotImplementedError("tensor-grid smoothing requires an untruncated kernel")
    arrays = _grid_arrays(ensemble, kernel, grid, derivatives)
    return {k: a for k, a in zip(("value", "grad", "hess"), arrays) if a is not None}


def t_field_on_grid(spec: SurfSpec, grid: RefinedGrid) -> np.ndarray:
    """t statistic at every grid point via the separable engine, (P,)."""
    return _t_from_arrays(smooth_on_grid(spec.ensemble, spec.kernel, grid)["value"])[0]
