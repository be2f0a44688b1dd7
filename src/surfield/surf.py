"""Super-resolution field evaluation.

A lattice field X on a voxel set smoothed by a kernel K defines the
continuous field  X~(x) = sum_v K(x, v) X(v),  evaluable (with exact
derivatives) at any point.  This module evaluates single fields, ensembles,
the normalized variant (unit pointwise variance), covariances, and the
one-sample t-statistic field, in batched/columnar form.

Two separable engines back every kernel sum, each as ``s(a, b=None,
out=None)``: the sums over voxels of an ensemble's data times the kernel
derivative of per-axis orders ``a`` (times that of orders ``b``), written
into ``out`` if given.  For untruncated kernels both read the subjects-last
(m1..mD, N) data tensor the ensemble owns (``FieldEnsemble.dense``).  On
(subsets of) the tensor-product grids that the curvature and simulation
pipelines evaluate on, ``_grid_sums`` contracts it with one kernel-factor
matrix per axis (``_grid_factors``, which a caller may build once for many
slabs and ensembles), one GEMM per axis, and takes contiguous (N, Q) columns at
the grid points, or, for a range of ids known from its bounds to fill the
contracted block (whole rows of a box grid), lets the last GEMM write them.
At arbitrary points, ``_point_stack`` contracts it with per-point stacks of
the 1-D factors of every order (one ``exp`` per axis, maps built once) into
(N, keys, P) sums, which ``_point_sums`` serves as columns and
``_t_hessian_at`` turns into t and its derivatives; a truncated kernel, which
is not separable, sums them over all point x voxel pairs under its mask.
``_sums`` alone chooses the engine.  Kernel operands
carry no subnormals (``_flush``).  Over the domain's ``unit_field`` of ones the
same sums give the white-noise moments that normalize fields and give
``geometry`` its white-noise metric.

A thread's workspace (``_workspace``) keeps the grid engine's GEMM results and
the columns it returns without ``out`` in pooled buffers (``_buf``); only
``lkc``'s slab threads, which return sums, hold one (7.5 MB for the 50-subject shell).
"""
from __future__ import annotations

import ctypes
import math
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement, permutations, product
from pathlib import Path

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

_CHUNK_CELLS = 4_000_000  # max entries of the point engine's factor stacks or axis-0 product per chunk


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
        _check_dimensions(self.kernel, {"ensemble's domain": self.ensemble.domain})


def _check_dimensions(kernel: GaussianKernel, parts: dict) -> None:
    """Raise unless every named part (voxel set, manifold or grid; None
    skipped) has the kernel's dimension."""
    for name, part in parts.items():
        if part is not None and part.dimension != kernel.dimension:
            raise ValueError(f"the {name} is {part.dimension}-D but the kernel is {kernel.dimension}-D")


# ---------------------------------------------------------------------------
# Point engine
# ---------------------------------------------------------------------------


_ORDERS = ("value", "gradient", "hessian")


def _stack_contract(data: np.ndarray, stacks: list[np.ndarray]) -> np.ndarray:
    """(P, k^D, N) sums of the subjects-last (m1..mD, N) data tensor against
    per-point factor stacks (P, k, m_d): axis 0 as one matmul over every
    point and stacked factor, each further axis as one batched product per
    point.  The stacked factors of axis 0 vary slowest."""
    P, k, m = stacks[0].shape
    out = (stacks[0].reshape(P * k, m) @ data.reshape(m, -1)).reshape(P, k, -1)
    for F in stacks[1:]:
        m = F.shape[-1]
        out = np.matmul(F[:, None], out.reshape(P, out.shape[1], m, -1)).reshape(P, -1, out.shape[-1] // m)
    return out


@cache
def _point_maps(D: int, order: int, pairs: bool):
    """The point engine's factor kinds, its sums' keys (a, b), per key the kinds
    it reads per axis, and their flat columns in ``_stack_contract``'s output.
    Every kind a Hessian needs is stacked, so no sum's bits depend on ``order``."""
    orders = [a for a in product(range(order + 1), repeat=D) if sum(a) <= order]
    keys = [(a, b) for a in orders for b in orders if sum(b) <= 1] if pairs else [(a, None) for a in orders]
    kinds = [(a, b) for a in range(2) for b in range(a, 3)] if pairs else [(o,) for o in range(3)]
    index = [tuple(kinds.index(tuple(sorted(o[d] for o in key if o is not None))) for d in range(D))
             for key in keys]
    return kinds, keys, index, [int(np.ravel_multi_index(idx, (len(kinds),) * D)) for idx in index]


def _point_stack(kernel: GaussianKernel, ens: FieldEnsemble, points: np.ndarray, order: int,
                 pairs: bool = False) -> tuple[list, np.ndarray]:
    """The point engine: its sums' keys (a, b), |a| <= order and, with ``pairs``,
    |b| <= 1, and the sums, (N, keys, P): over the ensemble's voxels v, values[:, v]
    times the kernel derivative of per-axis orders a at (point, v), times that of
    orders b.  Untruncated kernels write every kind of 1-D factor (one ``exp`` per
    axis) into one (P, kinds, m_d) stack per axis, flushed once, and contract the
    stacks with the subjects-last data tensor (``_stack_contract``); a truncated
    kernel flushes only the kinds its keys read, over all point x voxel pairs, and
    their products under the truncation mask multiply the values."""
    D, N, domain = kernel.dimension, ens.n_fields, ens.domain
    points = np.atleast_2d(points)
    if points.shape[1] != D:
        raise ValueError(f"points of dimension {points.shape[1]} do not match the {D}-D kernel")
    kinds, keys, index, flat = _point_maps(D, order, pairs)
    truncated = kernel.truncation is not None
    if truncated:  # up to 4 D (P, M) arrays per stacked factor are cached per chunk
        targets, width = domain.coords.T, 4 * len(kinds) * D * domain.n_voxels
    else:
        targets, data = domain.axis_values, ens.dense
        width = len(kinds) * data.size // data.shape[0]
    step = max(1, _CHUNK_CELLS // width)
    sums = np.empty((N, len(keys), len(points)))
    for start in range(0, len(points), step):
        t = [points[start:start + step, d, None] - targets[d] for d in range(D)]
        if truncated:
            # only the kinds the keys read; products over the leading axes are shared (a
            # plain dict, so no reference cycle outlives the call); symmetric keys share a column
            kind = []
            for d, u in enumerate(t):
                used = {idx[d] for idx in index}
                f = kernel.axis_factors(d, u, max(max(kinds[i]) for i in used))
                kind.append({i: _flush(f[kinds[i][0]] * f[kinds[i][1]] if pairs else f[i]) for i in used})
            lead = {(): sum(u * u for u in t) <= kernel.truncation**2}
            for idx in index:
                for j in range(1, D):
                    if idx[:j] not in lead:
                        lead[idx[:j]] = lead[idx[:j - 1]] * kind[j - 1][idx[j - 1]]
            column = cache(lambda idx: (lead[idx[:-1]] * kind[D - 1][idx[-1]]) @ ens.values.T)
            for j, idx in enumerate(index):
                sums[:, j, start:start + step] = column(idx).T
        else:
            stacks = [np.empty((len(u), len(kinds), u.shape[1])) for u in t]
            for d, (u, F) in enumerate(zip(t, stacks)):
                f = kernel.axis_factors(d, u, 2)
                for i, kind in enumerate(kinds):
                    F[:, i] = f[kind[0]] * f[kind[1]] if pairs else f[i]
                _flush(F)
            sums[:, :, start:start + step] = _stack_contract(data, stacks)[:, flat].transpose(2, 1, 0)
    return keys, sums


def _point_sums(kernel: GaussianKernel, ens: FieldEnsemble, points: np.ndarray, order: int,
                pairs: bool = False):
    """s(a, b=None, out=None) at arbitrary points: ``_point_stack``'s sum of key
    (a, b) as a C-contiguous (N, P) array, copied into ``out`` if given."""
    keys, stack = _point_stack(kernel, ens, points, order, pairs)
    sums = dict(zip(keys, np.ascontiguousarray(stack.transpose(1, 0, 2))))
    N = stack.shape[0]

    def s(a: tuple, b: tuple | None = None, out: np.ndarray | None = None) -> np.ndarray:
        if out is not None:
            out.reshape(N, -1, copy=False)[...] = sums[a, b]
        return sums[a, b] if out is None else out.reshape(N, -1, copy=False)

    return s


def _components_first(lead: tuple, *components: int) -> np.ndarray:
    """An empty array of shape lead + components stored components first:
    a view whose every entry [..., d, e] is one contiguous column."""
    k = len(components)
    return np.moveaxis(np.empty(components + lead), range(k), range(-k, 0))


def _bundle(moment, D: int, hessian: bool):
    """(S, Sd, Sdd[, T2, U2]) with S = <X, X>, Sd = <X, dX>, Sdd = <dX, dX>,
    T2 = <ddX, dX> and U2 = <ddX, X> per point, each entry written into its
    column by ``moment(a, b, out=None)`` and copied to its mirrors.  The arrays
    are stored components first (``_components_first``) and exposed as
    (..., D[, D[, D]]) views, so each per-entry pass streams one column."""
    zero = _unit(D)
    S = moment(zero, zero)
    Sd = _components_first(S.shape, D)
    Sdd = _components_first(S.shape, D, D)
    for d in range(D):
        moment(zero, _unit(D, d), out=Sd[..., d])
    for d, e in combinations_with_replacement(range(D), 2):
        Sdd[..., e, d] = moment(_unit(D, d), _unit(D, e), out=Sdd[..., d, e])
    if not hessian:
        return S, Sd, Sdd
    T2 = _components_first(S.shape, D, D, D)  # <dk dd X, de X>
    U2 = _components_first(S.shape, D, D)  # <dk dd X, X>
    for k, d in combinations_with_replacement(range(D), 2):
        U2[..., d, k] = moment(_unit(D, k, d), zero, out=U2[..., k, d])
        for e in range(D):
            T2[..., d, k, e] = moment(_unit(D, k, d), _unit(D, e), out=T2[..., k, d, e])
    return S, Sd, Sdd, T2, U2


def _white_noise_moments(kernel: GaussianKernel, domain: VoxelSet, hessian: bool, **at):
    """The bundle of independent unit-variance voxel noise over ``domain``,
    whose double sums collapse to single sums of kernel-derivative products
    over the voxel occupancy (``domain.unit_field``); ``at`` places them as
    in ``_sums``."""
    s = _sums(kernel, domain.unit_field, 2 if hessian else 1, pairs=True, **at)
    bundle = _bundle(lambda a, b, out=None: s(a, b, out)[0], kernel.dimension, hessian)
    if np.any(bundle[0] < 1e-30):
        raise DegenerateFieldError("vanishing field variance at an evaluation point")
    return bundle


def _eval_arrays(spec: SurfSpec, points: np.ndarray, order: str, field: int | None = None):
    """(val, grad, hess) of the smoothed field(s) from one point-engine call;
    the derivatives above ``order`` are None.  The normalization divides by
    sigma = sqrt(S), the white-noise moments of the domain giving grad
    sigma^2 = 2 Sd and Hess sigma^2 = 2 (U2 + Sdd)."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not np.all(np.isfinite(points)):
        raise ValueError("query points must be finite")
    ens, kern, n = spec.ensemble, spec.kernel, _ORDERS.index(order)
    if field is not None:
        ens = FieldEnsemble(ens.domain, ens.values[[field]])
    v, g, h = _derivative_arrays(_point_sums(kern, ens, points, n), kern.dimension, n)
    if not spec.normalized:
        return v, g, h
    S, Sd, Sdd, *hess_moments = _white_noise_moments(kern, ens.domain, n == 2, points=points)
    return _quotient(1, v, g, h, S, Sd, hess_moments[1] + Sdd if hess_moments else None, 1)


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


def _quotient(c, f, df, ddf, s2, m1, m2, k):
    """c f / sd with sd = sqrt(s2), and its exact quotient-rule gradient and
    Hessian (None when df, resp. ddf, is None).  f (..., P), df (..., P, D)
    and ddf (..., P, D, D) are the numerator and its derivatives; s2 (P,)
    has d(s2) = 2 m1 / k and dd(s2) = 2 m2 / k, with m1 (P, D), m2 (P, D, D)."""
    sd = np.sqrt(s2)
    q = c * f / sd
    if df is None:
        return q, None, None
    ds = m1 / (k * sd[:, None])
    dq = c * (df * sd[:, None] - f[..., None] * ds) / s2[:, None]
    if ddf is None:
        return q, dq, None
    # dd(sd) = dd(s2) / (2 sd) - d(sd) d(sd)^T / sd
    dds = (m2 / k - ds[:, :, None] * ds[:, None, :]) / sd[:, None, None]
    cross = df[..., :, None] * ds[:, None, :]
    ddq = c * (
        ddf / sd[:, None, None]
        - (cross + np.swapaxes(cross, -1, -2) + f[..., None, None] * dds) / s2[:, None, None]
        + 2.0 * (f / (s2 * sd))[..., None, None] * ds[:, :, None] * ds[:, None, :]
    )
    return q, dq, ddq


def _t_from_arrays(val: np.ndarray, grad: np.ndarray | None = None, hess: np.ndarray | None = None):
    """sqrt(N) * mean / sd, sd with the N-1 denominator, and its exact
    gradient and Hessian (None when the field derivative is None); val (N, P)."""
    N = val.shape[0]
    if N < 2:
        raise DegenerateFieldError("t statistic requires at least two fields")
    mean = val.mean(axis=0)
    resid = val - mean
    s2 = np.einsum("np,np->p", resid, resid) / (N - 1)
    if np.any(s2 <= 0):
        raise DegenerateFieldError("zero sample variance at a query point")
    gmean = hmean = m1 = m2 = None
    if grad is not None:
        gmean = grad.mean(axis=0)
        gresid = grad - gmean
        m1 = np.einsum("np,npd->pd", resid, gresid)
    if hess is not None:
        hmean = hess.mean(axis=0)
        m2 = np.einsum("npd,npe->pde", gresid, gresid) + np.einsum("np,npde->pde", resid, hess - hmean)
    return _quotient(np.sqrt(N), mean, gmean, hmean, s2, m1, m2, N - 1)


@cache
def _derivative_keys(D: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions among the order-2 point sums' keys (``_point_maps``) of the
    gradient's (D,) and the Hessian's (D, D) derivatives; the value's is 0."""
    pos = {a: i for i, (a, _) in enumerate(_point_maps(D, 2, False)[1])}
    return (np.array([pos[_unit(D, d)] for d in range(D)]),
            np.array([[pos[_unit(D, d, e)] for e in range(D)] for d in range(D)]))


def _t_hessian_at(kernel: GaussianKernel, ens: FieldEnsemble, points: np.ndarray):
    """t, its gradient and Hessian at ``points``, (P,), (P, D) and (P, D, D), from
    one point-engine call: its (N, keys, P) sums centred once over the subjects,
    and all their cross moments from one einsum.  Each sum over the subjects runs
    in subject order for every point and key, so a point's bits do not depend on
    its batch (unlike ``_t_from_arrays``, whose mean of an (N, 1) array is pairwise)."""
    stack = _point_stack(kernel, ens, points, 2)[1]
    N = stack.shape[0]
    if N < 2:
        raise DegenerateFieldError("t statistic requires at least two fields")
    mean = stack.mean(axis=0)
    stack -= mean
    cross = np.einsum("nkp,njp->kjp", stack, stack)
    s2 = cross[0, 0] / (N - 1)
    if np.any(s2 <= 0):
        raise DegenerateFieldError("zero sample variance at a query point")
    g, h = _derivative_keys(kernel.dimension)
    m2 = (cross[g[:, None], g] + cross[0, h]).transpose(2, 0, 1)
    return _quotient(np.sqrt(N), mean[0], mean[g].T, mean[h].transpose(2, 0, 1), s2, cross[0, g].T, m2, N - 1)


def t_field(spec: SurfSpec, points: np.ndarray, order: str = "value"):
    """One-sample t statistic of the smoothed ensemble at the given points.

    Normalization of the fields cancels out of the statistic, so evaluation
    uses the raw smoothed fields.  Returns (P,) values or (P, D) gradients.
    """
    if order not in ("value", "gradient"):
        raise ValueError(f"unknown order {order!r}")
    raw = SurfSpec(spec.ensemble, spec.kernel)  # scale invariance: skip normalization
    return _t_from_arrays(*_eval_arrays(raw, points, order))[_ORDERS.index(order)]


# ---------------------------------------------------------------------------
# Tensor-grid engine
# ---------------------------------------------------------------------------


def _contract(data: np.ndarray, mats: list[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """(N, q1..qD) sums of the subjects-last (m1..mD, N) data tensor against
    per-axis (q_d, m_d) matrices, flattened to (N, q1 * .. * qD).  Each axis
    is one GEMM on the leading axis into a buffer (``_buf``), which moves that
    axis to the end; the last writes into ``out`` (as many entries) if given."""
    N, *inner, F = data.shape[-1], *mats
    for G in inner:
        lhs = data.reshape(G.shape[1], -1).T
        data = np.matmul(lhs, G.T, out=_buf("axis", (len(lhs), len(G))))
    lhs = data.reshape(F.shape[1], -1).T
    out = _buf("last", (len(lhs), len(F))) if out is None else out.reshape(len(lhs), -1, copy=False)
    return np.matmul(lhs, F.T, out=out).reshape(N, -1)


def _unit(D: int, *axes: int) -> tuple:
    """Per-axis derivative orders of the derivative along ``axes``."""
    out = [0] * D
    for a in axes:
        out[a] += 1
    return tuple(out)


def _flush(a: np.ndarray) -> np.ndarray:
    """``a`` with its subnormals set to 0 in place: BLAS slows down on them,
    and a term below tiny is under half an ulp of every sum it joins."""
    a[np.abs(a) < np.finfo(np.float64).tiny] = 0.0
    return a


def _id_array(ids):  # numpy would convert a range element by element
    return np.arange(ids.start, ids.stop, ids.step) if isinstance(ids, range) else ids


def _locate(grid: RefinedGrid, ids) -> tuple[slice, np.ndarray | None]:
    """The axis-0 rows the grid points ``ids`` touch, and the points' flat
    positions in those rows' block (all keys of the other axes), or None for
    a range that its end points and count show to fill the block in order."""
    shape = [len(k) for k in grid.axis_keys]
    if isinstance(ids, range) and len(ids):
        lo, hi = np.searchsorted(grid.axis_keys[0], grid.keys[[ids[0], ids[-1]], 0])
        if len(ids) == (hi + 1 - lo) * np.prod(shape[1:]):
            return slice(lo, hi + 1), None
    axes = list(grid.axis_positions(_id_array(ids)))
    lo, hi = (axes[0].min(), axes[0].max()) if len(axes[0]) else (0, shape[0] - 1)
    axes[0] = axes[0] - lo
    return slice(lo, hi + 1), np.ravel_multi_index(axes, [hi + 1 - lo] + shape[1:])


def _grid_factors(kernel: GaussianKernel, domain: VoxelSet, grid: RefinedGrid, order: int = 2,
                  pairs: bool = True) -> dict:
    """The kernel factor matrices grid sums of per-axis orders <= ``order`` over
    ``domain`` read, flushed: per axis d the factor of order a at every key of
    the axis, keyed (d, a), and with ``pairs`` the products keyed (d, a, b), a <=
    min(b, 1).  A slab's axis-0 rows are a slice, elementwise the bits of their
    own build, and the orders below ``order`` the bits of a build of their own."""
    ops = {}
    for d in range(grid.dimension):
        factors = kernel.axis_factors(d, grid.axis_coords[d][:, None] - domain.axis_values[d], order)
        for b in range(order + 1):
            ops[d, b] = _flush(factors[b])
            for a in range(min(b, 1) + 1 if pairs else 0):
                ops[d, a, b] = _flush(ops[d, a] * ops[d, b])
    return ops


def _grid_sums(kernel: GaussianKernel, ens: FieldEnsemble, grid: RefinedGrid, ids=None, factors=None):
    """s(a, b=None, out=None): the ensemble's subjects-last data tensor
    contracted along each axis d with the kernel factor of order a[d] (times
    that of order b[d]) of ``factors`` (``_grid_factors``, built when None), at
    the grid points ``ids`` (a range or id array, all when None) as contiguous
    (N, Q) columns in ``out``, else a buffer (``_buf``): the contraction of the
    axis-0 rows ``_locate`` finds, or the points taken from it."""
    ops, data, N = factors or _grid_factors(kernel, ens.domain, grid), ens.dense, ens.n_fields
    ids = range(grid.n_points) if ids is None else ids
    rows, flat = _locate(grid, ids)

    @cache
    def head(key: tuple) -> np.ndarray:  # _contract's axis-0 GEMM, shared by the sums of its factor
        G = ops[key][rows]
        lhs = data.reshape(G.shape[1], -1).T
        return np.matmul(lhs, G.T, out=_buf(("head", key), (len(lhs), len(G)))).reshape(*data.shape[1:-1], -1)

    def s(a: tuple, b: tuple | None = None, out: np.ndarray | None = None) -> np.ndarray:
        keys = [(d, a[d]) if b is None else (d, *sorted((a[d], b[d]))) for d in range(len(a))]
        lead, mats = ((head(keys[0]), [ops[k] for k in keys[1:]]) if len(a) > 1
                      else (data, [ops[keys[0]][rows]]))
        out = _buf(("column", a, b), (N, len(ids))) if out is None else out.reshape(N, -1, copy=False)
        if flat is None:
            return _contract(lead, mats, out).reshape(N, -1)
        # the positions are in range; unlike "raise", "clip" writes into ``out`` without a buffer
        return np.take(_contract(lead, mats).reshape(N, -1), flat, axis=1, mode="clip", out=out)

    return s


def _sums(kernel: GaussianKernel, ens: FieldEnsemble, order: int, pairs: bool = False,
          *, points=None, grid=None, ids=None, factors=None):
    """s(a, b=None, out=None) of the ensemble ``ens``, at ``points`` or at
    the grid points ``ids`` (a range or id array, all when None) of ``grid``:
    the tensor-grid engine for an untruncated kernel on a grid (reading
    ``factors`` if given), else the point engine, which alone sums a
    truncated kernel exactly (``order`` and ``pairs`` as there)."""
    if grid is not None and kernel.truncation is None:
        return _grid_sums(kernel, ens, grid, ids, factors or _grid_factors(kernel, ens.domain, grid, order, pairs))
    if grid is not None:
        points = grid.points if ids is None else grid.points[_id_array(ids)]
    return _point_sums(kernel, ens, points, order, pairs)


@cache
def _openblas():
    """(set, get) of numpy's bundled OpenBLAS thread count, through ctypes;
    None where that library or its symbols are missing."""
    for path in (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"):
        with suppress(OSError, AttributeError):
            lib = ctypes.CDLL(str(path))
            return lib.scipy_openblas_set_num_threads64_, lib.scipy_openblas_get_num_threads64_


_blas_lock, _blas_users, _blas_saved = threading.Lock(), 0, 0


@contextmanager
def _one_blas_thread():
    """Numpy's OpenBLAS at one thread in the block, for code running BLAS on
    threads of its own; yields whether it switched (not without ``_openblas``).
    The setting is process-wide: blocks on several threads share it under a
    lock and a count, the first in saving the count, the last out restoring it."""
    global _blas_users, _blas_saved
    lib = _openblas()
    with _blas_lock:
        if lib and not _blas_users:
            _blas_saved = lib[1]()
            lib[0](1)
        _blas_users += 1
    try:
        yield lib is not None
    finally:
        with _blas_lock:
            _blas_users -= 1
            if lib and not _blas_users:
                lib[0](_blas_saved)


_pool, _pool_lock, _bound = [], threading.Lock(), threading.local()


@contextmanager
def _workspace():
    """A workspace of the pool (named flat buffers, ``_buf``) bound to this thread in the
    block, then returned and the previous binding restored, on an error too, so blocks nest."""
    with _pool_lock:
        ws = _pool.pop() if _pool else {}
    outer, _bound.ws = getattr(_bound, "ws", None), ws
    try:
        yield ws
    finally:
        _bound.ws = outer
        with _pool_lock:
            _pool.append(ws)


def _buf(name, shape: tuple) -> np.ndarray:
    """An uninitialized C-contiguous float64 array: the first entries of the thread's
    workspace buffer ``name`` (grown if too small) until ``name`` is asked again, else new."""
    ws = getattr(_bound, "ws", None)
    if ws is None:
        return np.empty(shape)
    n, buf = math.prod(shape), ws.get(name)
    if buf is None or buf.size < n:
        buf = ws[name] = np.empty(n)
    return buf[:n].reshape(shape)


def _derivative_arrays(s, D: int, derivatives: int):
    """(val, grad, hess) from the sums ``s(a)``, one call per derivative
    multi-index; the derivatives above ``derivatives`` are None."""
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

    An untruncated kernel is separable: the ensemble's subjects-last data
    tensor is contracted with one smoothing matrix per axis, then taken at the grid's
    points; a truncated kernel goes through the point engine.  Returns
    'value': (N, P) plus, if requested, 'grad': (N, P, D) and 'hess':
    (N, P, D, D).
    """
    s = _sums(kernel, ensemble, derivatives, grid=grid)
    arrays = _derivative_arrays(s, kernel.dimension, derivatives)
    return {k: a for k, a in zip(("value", "grad", "hess"), arrays) if a is not None}


def t_field_on_grid(spec: SurfSpec, grid: RefinedGrid) -> np.ndarray:
    """t statistic at every grid point, (P,)."""
    return _t_on_grid(spec.kernel, spec.ensemble, grid)


def _t_on_grid(kernel: GaussianKernel, ens: FieldEnsemble, grid: RefinedGrid, factors=None) -> np.ndarray:
    """t statistic of the ensemble at every grid point, (P,), reading the kernel factor
    matrices ``factors`` (``_grid_factors`` of any order) where given."""
    return _t_from_arrays(_sums(kernel, ens, 0, grid=grid, factors=factors)(_unit(kernel.dimension)))[0]
