"""FWHM-parametrized Gaussian smoothing kernel with exact derivatives.

The kernel value at offset t is ``exp(-4 log 2 * sum_d t_d^2 / f_d^2)``: it
equals 1 at zero offset and exactly 1/2 at an axis offset of ``f_d / 2``,
which is what full width at half maximum means.  Gradients and Hessians are
analytic, never finite-differenced.  An optional truncation radius treats the
kernel (and all derivatives) as exactly zero beyond an offset norm of rho,
with relative error bounded by ``exp(-4 log 2 rho^2 / max(f)^2)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["GaussianKernel", "kernel_eval"]

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class GaussianKernel:
    """Separable Gaussian kernel with per-axis FWHM (voxel-coordinate units)."""

    fwhm: tuple[float, ...]
    truncation: float | None = None

    def __post_init__(self):
        f = self.fwhm
        if np.isscalar(f):
            raise TypeError("fwhm must be a sequence; use GaussianKernel.isotropic for a scalar")
        f = tuple(float(x) for x in f)
        if len(f) < 1 or len(f) > 3:
            raise ValueError("kernel dimension must be 1..3")
        if not all(0 < x < math.inf for x in f):
            raise ValueError(f"fwhm must be positive and finite, got {f}")
        if self.truncation is not None and not 0 < self.truncation < math.inf:
            raise ValueError(f"truncation radius must be positive and finite, got {self.truncation}")
        object.__setattr__(self, "fwhm", f)

    @classmethod
    def isotropic(cls, fwhm: float, ndim: int, truncation: float | None = None) -> "GaussianKernel":
        return cls((float(fwhm),) * ndim, truncation)

    @property
    def dimension(self) -> int:
        return len(self.fwhm)

    @cached_property
    def decay(self) -> np.ndarray:
        """Per-axis exponential rate c_d = 4 log 2 / f_d^2 (sigma_d^2 = f_d^2 / (8 log 2))."""
        f = np.asarray(self.fwhm)
        c = 4.0 * LOG2 / f**2
        c.setflags(write=False)
        return c

    # -- 1-D factors --------------------------------------------------------

    def axis_factor(self, d: int, t: np.ndarray, order: int) -> np.ndarray:
        """d-th 1-D factor k(t) = exp(-c t^2) or its first/second derivative."""
        return self.axis_factors(d, t, order)[order]

    def axis_factors(self, d: int, t: np.ndarray, order: int) -> list[np.ndarray]:
        """[k, k', k''][:order + 1] of the d-th 1-D factor k(t) = exp(-c t^2), from one exp."""
        if not 0 <= order <= 2:
            raise ValueError(f"unsupported axis derivative order {order}")
        c, t = self.decay[d], np.asarray(t, dtype=np.float64)
        k = np.exp(-c * t**2)
        out = [k] if order == 0 else [k, -2.0 * c * t * k]
        if order == 2:
            out.append((4.0 * c * c * t * t - 2.0 * c) * k)
        return out

    # -- pairwise evaluation -------------------------------------------------

    def _pairwise(self, points: np.ndarray, voxels: np.ndarray, order: int):
        """(K, grad K, Hess K) in x for all (point, voxel) pairs, shapes
        (P, M), (P, M, D) and (P, M, D, D), from one pass over the offsets,
        the exponential and the truncation mask; entries above ``order``
        are None."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        voxels = np.atleast_2d(np.asarray(voxels, dtype=np.float64))
        if points.shape[1] != self.dimension or voxels.shape[1] != self.dimension:
            raise ValueError(f"points of dimension {points.shape[1]} and voxels of dimension "
                             f"{voxels.shape[1]} do not match the {self.dimension}-D kernel")
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(voxels))):
            raise ValueError("query points must be finite")
        t = points[:, None, :] - voxels[None, :, :]
        k = np.exp(-np.einsum("d,pmd->pm", self.decay, t * t))
        out = [k, None, None]
        if order >= 1:
            lin = (-2.0 * self.decay) * t
            out[1] = lin * k[..., None]
        if order >= 2:
            h = out[2] = lin[:, :, :, None] * lin[:, :, None, :]
            diag = np.arange(self.dimension)
            h[:, :, diag, diag] += -2.0 * self.decay
            h *= k[..., None, None]
        if self.truncation is not None:
            outside = ~(np.einsum("pmd,pmd->pm", t, t) <= self.truncation**2)
            for a in out[: order + 1]:
                np.copyto(a, 0.0, where=outside.reshape(outside.shape + (1,) * (a.ndim - 2)))
        return tuple(out)

    def pairwise_value(self, points: np.ndarray, voxels: np.ndarray) -> np.ndarray:
        """K(x, v) for all pairs, shape (P, M)."""
        return self._pairwise(points, voxels, 0)[0]

    def pairwise_gradient(self, points: np.ndarray, voxels: np.ndarray) -> np.ndarray:
        """Gradient in x of K(x, v) for all pairs, shape (P, M, D)."""
        return self._pairwise(points, voxels, 1)[1]

    def pairwise_hessian(self, points: np.ndarray, voxels: np.ndarray) -> np.ndarray:
        """Hessian in x of K(x, v) for all pairs, shape (P, M, D, D)."""
        return self._pairwise(points, voxels, 2)[2]


def kernel_eval(kernel: GaussianKernel, x, v, order: str = "value"):
    """Evaluate K, its gradient, or its Hessian at a single (x, v) pair."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    v = np.asarray(v, dtype=np.float64).reshape(1, -1)
    if order == "value":
        return float(kernel.pairwise_value(x, v)[0, 0])
    if order == "gradient":
        return kernel.pairwise_gradient(x, v)[0, 0]
    if order == "hessian":
        return kernel.pairwise_hessian(x, v)[0, 0]
    raise ValueError(f"unknown order {order!r}")
