"""Super-resolution field evaluation.

A lattice field X on a voxel set smoothed by a kernel K defines the
continuous field  X~(x) = sum_v K(x, v) X(v),  evaluable (with exact
derivatives) at any point.  This module evaluates single fields, ensembles,
the normalized variant (unit pointwise variance), covariances, and the
one-sample t-statistic field, in batched/columnar form.

Two evaluation engines back the public operations: a generic chunked
point-by-voxel path, and a separable tensor-contraction path used when the
query points form (a subset of) a tensor-product grid, which is what the
curvature and simulation pipelines evaluate on.
"""
from __future__ import annotations

from dataclasses import dataclass

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

_CHUNK_CELLS = 4_000_000  # max points x voxels per generic-path slab


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


def _design(kernel: GaussianKernel, domain: VoxelSet, points: np.ndarray, order: str):
    """Kernel design matrices K(x, v) and requested x-derivatives.

    Yields (slab slice, dict) with 'v': (p, M), optionally 'g': (p, M, D),
    'h': (p, M, D, D)."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    vox = domain.coords
    for sl in _chunks(points.shape[0], vox.shape[0]):
        pts = points[sl]
        out = {"v": kernel.pairwise_value(pts, vox)}
        if order in ("gradient", "hessian"):
            out["g"] = kernel.pairwise_gradient(pts, vox)
        if order == "hessian":
            out["h"] = kernel.pairwise_hessian(pts, vox)
        yield sl, out


def _norm_sums(design: dict) -> dict:
    """sigma^2 = ||K_x||^2 and its derivatives (independent voxel noise)."""
    K = design["v"]
    out = {"s2": np.einsum("pm,pm->p", K, K)}
    if "g" in design:
        out["ds2"] = 2.0 * np.einsum("pm,pmd->pd", K, design["g"])
    if "h" in design:
        out["dds2"] = 2.0 * (
            np.einsum("pm,pmde->pde", K, design["h"])
            + np.einsum("pmd,pme->pde", design["g"], design["g"])
        )
    return out


def _check_sigma(s2: np.ndarray):
    if np.any(s2 < 1e-30):
        raise DegenerateFieldError("normalization denominator vanished at a query point")


_ORDERS = ("value", "gradient", "hessian")


def _eval_arrays(spec: SurfSpec, points: np.ndarray, order: str, field: int | None = None):
    """(val, grad, hess) of the smoothed field(s) from one kernel-design
    sweep; the derivatives above ``order`` are None."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not np.all(np.isfinite(points)):
        raise ValueError("query points must be finite")
    X = spec.ensemble.values if field is None else spec.ensemble.values[[field]]
    N, P, D = X.shape[0], points.shape[0], spec.kernel.dimension
    val = np.empty((N, P))
    grad = np.empty((N, P, D)) if order != "value" else None
    hess = np.empty((N, P, D, D)) if order == "hessian" else None
    for sl, des in _design(spec.kernel, spec.ensemble.domain, points, order):
        v = np.einsum("nm,pm->np", X, des["v"])
        if spec.normalized:
            ns = _norm_sums(des)
            _check_sigma(ns["s2"])
            sig = np.sqrt(ns["s2"])
        val[:, sl] = v / sig if spec.normalized else v
        if grad is not None:
            gg = g = np.einsum("nm,pmd->npd", X, des["g"])
            if spec.normalized:
                dsig = ns["ds2"] / (2.0 * sig[:, None])
                g = g / sig[None, :, None] - v[:, :, None] * dsig[None] / ns["s2"][None, :, None]
            grad[:, sl] = g
        if hess is not None:
            hh = np.einsum("nm,pmde->npde", X, des["h"])
            if spec.normalized:
                ddsig = ns["dds2"] / (2.0 * sig[:, None, None]) - (
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


def _t_from_arrays(val: np.ndarray, grad: np.ndarray | None):
    """sqrt(N) * mean / sd with exact quotient-rule gradient; val is (N, P)."""
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
        return t, None
    gmean = grad.mean(axis=0)
    gresid = grad - gmean
    # d(sd)/dx = cov(X~, dX~)/sd  with the same N-1 denominator
    ds = np.einsum("np,npd->pd", resid, gresid) / ((N - 1) * sd[:, None])
    gt = np.sqrt(N) * (gmean * sd[:, None] - mean[:, None] * ds) / s2[:, None]
    return t, gt


def t_field(spec: SurfSpec, points: np.ndarray, order: str = "value"):
    """One-sample t statistic of the smoothed ensemble at the given points.

    Normalization of the fields cancels out of the statistic, so evaluation
    uses the raw smoothed fields.  Returns (P,) values or (P, D) gradients;
    order='both' returns the pair.
    """
    if order not in ("value", "gradient", "both"):
        raise ValueError(f"unknown order {order!r}")
    raw = SurfSpec(spec.ensemble, spec.kernel)  # scale invariance: skip normalization
    val, grad, _ = _eval_arrays(raw, points, "value" if order == "value" else "gradient")
    t, gt = _t_from_arrays(val, grad)
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
    pos = tuple(
        np.searchsorted(domain.axis_values[d], domain.coords[:, d])
        for d in range(domain.dimension)
    )
    data[(slice(None),) + pos] = values
    return data


def _axis_matrix(kernel: GaussianKernel, d: int, xs: np.ndarray, vs: np.ndarray, order: int):
    t = xs[:, None] - vs[None, :]
    return kernel.axis_factor(d, t, order)


def _contract(data: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
    """Apply per-axis smoothing matrices to (N, m1..mD) data."""
    out = data
    D = len(mats)
    for d in range(D):
        out = np.moveaxis(np.tensordot(mats[d], out, axes=(1, d + 1)), 0, d + 1)
    return out


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
    dom = ensemble.domain
    D = dom.dimension
    data = _padded_data_tensor(dom, ensemble.values)
    mats = {}
    for d in range(D):
        for o in range(derivatives + 1):
            mats[(d, o)] = _axis_matrix(kernel, d, grid.axis_coords[d], dom.axis_values[d], o)
    pos = grid.axis_positions
    gather = (slice(None),) + tuple(pos[:, d] for d in range(D))

    out = {}
    base = [mats[(d, 0)] for d in range(D)]
    out["value"] = _contract(data, base)[gather]
    if derivatives >= 1:
        N, P = out["value"].shape
        grad = np.empty((N, P, D))
        for d in range(D):
            m = list(base)
            m[d] = mats[(d, 1)]
            grad[:, :, d] = _contract(data, m)[gather]
        out["grad"] = grad
    if derivatives >= 2:
        N, P = out["value"].shape
        hess = np.empty((N, P, D, D))
        for d in range(D):
            for e in range(d, D):
                m = list(base)
                if d == e:
                    m[d] = mats[(d, 2)]
                else:
                    m[d] = mats[(d, 1)]
                    m[e] = mats[(e, 1)]
                hess[:, :, d, e] = hess[:, :, e, d] = _contract(data, m)[gather]
        out["hess"] = hess
    return out


def t_field_on_grid(spec: SurfSpec, grid: RefinedGrid, with_gradient: bool = False):
    """t statistic at every grid point via the separable engine."""
    arr = smooth_on_grid(spec.ensemble, spec.kernel, grid, derivatives=1 if with_gradient else 0)
    return _t_from_arrays(arr["value"], arr.get("grad"))
