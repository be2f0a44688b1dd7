"""Thresholds and familywise-error machinery.

The expected Euler characteristic of the excursion set above u is
sum_d L_d rho_d(u) with field-type-specific densities rho_d; solving that
for the largest u with value alpha gives the voxelwise rejection threshold.
The simulation harness estimates the attained familywise error rate of that
threshold on the voxel lattice, on the resolution-1 grid, and for the
continuous field via a multistart projected-Newton ascent that advances
every (start, box) pair in lockstep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache, partial

import numpy as np
from scipy import optimize as _sciopt  # noqa: F401  (bench/tracing.py wraps _sciopt.minimize)
from scipy import sparse as _sparse
from scipy import special as _special

from .kernel import GaussianKernel
from .lattice import (PRESET_NAMES, FieldEnsemble, RngSpec, VoxelSet, _check_count, _stationary_box,
                      make_domain_preset, sample_ensemble)
from .lkc import LkcVector, _check_curvatures, _reading, lkc_compute
from .manifold import RefinedGrid, VoxelManifold, _added_resolution, refined_grid
from .surf import DegenerateFieldError, SurfSpec, _t_from_arrays, _t_hessian_at, t_field_on_grid

__all__ = [
    "FieldType",
    "FwerReport",
    "NondegeneracyReport",
    "ec_density",
    "expected_euler_char",
    "threshold",
    "count_local_maxima_above",
    "maximize_t_field",
    "fwer_experiment",
    "localization_support",
    "nondegeneracy_check",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FieldType:
    """Marginal family of the test-statistic field: gaussian or student-t."""

    kind: str
    nu: float | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "t"):
            raise ValueError(f"unknown field type {self.kind!r}")
        if self.kind == "t" and (self.nu is None or not 1 <= self.nu < math.inf):
            raise ValueError(f"t requires finite degrees of freedom nu >= 1, got {self.nu!r}")

    @classmethod
    def gaussian(cls) -> "FieldType":
        return cls("gaussian")

    @classmethod
    def student_t(cls, nu: float) -> "FieldType":
        return cls("t", float(nu))

    @cached_property
    def _t_constants(self) -> tuple[float, ...]:
        """The t densities' constants (exponent, gammaln ratio, powers of 2 pi), each the
        leading part of its density's whole expression, so every density keeps its bits."""
        nu = float(self.nu)
        ratio = math.exp(_special.gammaln((nu + 1.0) / 2.0) - _special.gammaln(nu / 2.0))
        c2 = (TWO_PI) ** (-1.5) * ratio / math.sqrt(nu / 2.0)
        return -(nu - 1.0) / 2.0, c2, (TWO_PI) ** (-2.0), (nu - 1.0) / nu


def ec_density(ftype: FieldType, d: int, u) -> np.ndarray | float:
    """Euler-characteristic density rho_d of the field family at level u.

    rho_0 is the marginal upper-tail probability; the Gaussian family uses
    the Hermite form rho_d(u) = (2 pi)^{-(d+1)/2} He_{d-1}(u) exp(-u^2/2).
    Supported for d <= 3 (the ambient dimensions handled here).
    """
    u = np.asarray(u, dtype=np.float64)
    if d < 0 or d > 3:
        raise ValueError("ec densities implemented for d in 0..3")
    if ftype.kind == "gaussian":
        if d == 0:
            return _special.ndtr(-u)
        herm = {1: 1.0, 2: u, 3: u**2 - 1.0}[d]
        return (TWO_PI) ** (-(d + 1) / 2.0) * herm * np.exp(-(u**2) / 2.0)
    nu = float(ftype.nu)
    if d == 0:
        return _special.stdtr(nu, -u)
    power, c2, c3, k3 = ftype._t_constants
    base = (1.0 + u**2 / nu) ** power
    if d == 1:
        return base / TWO_PI
    if d == 2:
        return c2 * u * base
    return c3 * (k3 * u**2 - 1.0) * base


def expected_euler_char(lkcs, ftype: FieldType, u) -> np.ndarray | float:
    """sum_d L_d rho_d(u): the expected EC of the excursion set above u.

    ``lkcs`` is an LkcVector or a plain sequence (L_0, ..., L_D).
    """
    u = np.asarray(u, dtype=np.float64)
    out = _eec(lkcs, lambda d: ec_density(ftype, d, u), u.shape)
    return float(out) if out.ndim == 0 else out


def _eec(lkcs, density, shape: tuple) -> np.ndarray:
    """sum_d L_d density(d) over the non-zero L_d, added to zeros in order of d."""
    values = lkcs.values if isinstance(lkcs, LkcVector) else [float(v) for v in lkcs]
    return sum((L * density(d) for d, L in enumerate(values) if L != 0.0), np.zeros(shape))


_LEVELS = np.linspace(-10.0, 50.0, 4097)  # the levels of threshold's bracket sweep


@lru_cache(maxsize=16)
def _sweep_density(ftype: FieldType, d: int) -> np.ndarray:
    """ec_density(ftype, d) at every sweep level (32 kB)."""
    return ec_density(ftype, d, _LEVELS)


class ThresholdError(RuntimeError):
    pass


def _check_alpha(alpha, name: str = "alpha") -> None:
    """Refuse an ``alpha`` that is not a number in (0, 1); a bool is not one."""
    if isinstance(alpha, bool) or not (isinstance(alpha, (int, float, np.integer, np.floating)) and 0 < alpha < 1):
        raise ValueError(f"{name} must lie in (0, 1), got {alpha!r}")


def threshold(lkcs, ftype: FieldType, alpha: float, tol: float = 1e-12) -> float:
    """Largest u with expected excursion EC equal to alpha.

    Brackets the rightmost crossing on a sampled interval (from the largest
    level where the expected EC still exceeds one, up to 50) and bisects.
    Errors out when no crossing exists or the sampled curve is not
    decreasing through the crossing.  Plain curvatures obey ``LkcVector``'s
    rule (``lkc._check_curvatures``).
    """
    if not isinstance(lkcs, LkcVector):
        lkcs = _check_curvatures(lkcs, "lkcs")
    _check_alpha(alpha)
    eec = lambda u: expected_euler_char(lkcs, ftype, u)
    us, vals = _LEVELS, _eec(lkcs, partial(_sweep_density, ftype), _LEVELS.shape)
    big = np.nonzero(vals >= 1.0)[0]
    lo_idx = big[-1] if big.size else 0
    crossings = np.nonzero((vals[:-1] >= alpha) & (vals[1:] < alpha))[0]
    crossings = crossings[crossings >= lo_idx]
    if crossings.size == 0:
        raise ThresholdError(
            f"no level with expected EC = {alpha} found in the search bracket; "
            "alpha may be too large for these curvatures"
        )
    i = crossings[-1]
    if np.any(vals[i + 1 :] >= alpha):
        raise ThresholdError("expected EC is not decreasing beyond the candidate root")
    lo, hi = us[i], us[i + 1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if eec(mid) >= alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Local maxima on grids
# ---------------------------------------------------------------------------


def count_local_maxima_above(grid: RefinedGrid, values: np.ndarray, u: float) -> int:
    """Number of local maxima of grid values strictly above u.

    ``values`` holds one entry per grid point (else ValueError).  A point
    counts when no neighbor in the 3^D - 1 key stencil exceeds it; a
    connected plateau of equal values counts once if no neighbor exceeds it.
    """
    values = np.asarray(values, dtype=np.float64)
    return int(np.count_nonzero(values[_grid_local_maxima(grid, values)] > u))


def _grid_local_maxima(grid: RefinedGrid, values: np.ndarray) -> np.ndarray:
    """Ids of all strict-or-plateau local maxima, sorted by decreasing value.

    Each point is compared with its 3^D - 1 key-stencil neighbors (the
    grid's ``neighbours``).  Equal-valued neighbors are linked into
    plateaus; a plateau is a maximum when none of its members has a greater
    neighbor, and it is represented by its first member in decreasing-value
    order.
    """
    values = np.asarray(values, dtype=np.float64)
    P = grid.n_points
    if values.shape != (P,):
        raise ValueError(f"expected {P} grid values, got array of shape {values.shape}")
    top = np.ones(P, dtype=bool)
    pairs = []
    for nb in grid.neighbours:
        exists = nb >= 0
        nv = values[nb]
        top &= ~(exists & (nv > values))
        same = np.nonzero(exists & (nv == values))[0]
        pairs.append((same, nb[same]))
    src, dst = map(np.concatenate, zip(*pairs))
    order = np.argsort(values)[::-1]
    if not src.size:
        return order[top[order]]
    links = _sparse.coo_matrix((np.ones(src.size, dtype=bool), (src, dst)), shape=(P, P))
    n_plateaus, plateau = _sparse.csgraph.connected_components(links, directed=False)
    dominated = np.bincount(plateau[~top], minlength=n_plateaus) > 0
    # position in ``order`` of each plateau's first member
    _, first = np.unique(plateau[order], return_index=True)
    return order[np.sort(first[~dominated])]


# ---------------------------------------------------------------------------
# Continuous maximization of the t field
# ---------------------------------------------------------------------------


_GTOL = 1e-10  # a pair retires when its projected gradient max-norm falls to this
_MAX_SWEEPS = 100  # cap on the batched evaluations of one ascent
# A step must gain this fraction of its first-order prediction: below 1/2, so
# full Newton steps pass, and far above the textbook 1e-4, so that a long
# projected step cannot leap from the start's basin into a lower one.
_ARMIJO = 0.25
_MIN_CURVATURE = 1e-8  # eigenvalue moduli of the Newton block are floored at this x the largest
_NOISE = 16 * np.finfo(np.float64).eps  # relative changes of t below this are rounding


def maximize_t_field(
    spec: SurfSpec,
    manifold: VoxelManifold,
    starts: int = 10,
    grid: RefinedGrid | None = None,
    grid_values: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Maximize the t field over the box union.

    Takes the t field on the scan grid (``grid_values``, one per point of
    ``grid``, else evaluated on ``grid`` or a fresh r = 1 grid), and
    from its ``starts`` highest local maxima (``_grid_local_maxima``: a
    plateau counts once) runs a projected-Newton ascent in every occupied
    box containing the start, all (start, box) pairs in lockstep
    (``_ascend``).  Returns the best point found, never below the scan-grid
    maximum.
    """
    _check_count("starts", starts, 1)
    if grid is None:
        grid = refined_grid(manifold, 1)
    if grid_values is None:
        grid_values = t_field_on_grid(spec, grid)
    max_ids = _grid_local_maxima(grid, grid_values)[:starts]
    return _ascend(spec, manifold, grid, grid_values, max_ids)


def _ascend(spec: SurfSpec, manifold: VoxelManifold, grid: RefinedGrid,
            grid_values: np.ndarray, max_ids: np.ndarray) -> tuple[np.ndarray, float]:
    """Bound-constrained ascent of the t field from the grid points
    ``max_ids`` (Bertsekas's projected Newton method, SIAM J. Control Optim.
    1982), one pair per start and occupied box containing it, all pairs
    advancing together.

    Each sweep evaluates t, its gradient and Hessian at the trial points of
    every running pair from one call of the separable point engine
    (``surf._t_hessian_at``: a point's bits do not depend on its batch).
    Trial points lie on the projection arc P(x + alpha d) of the direction
    ``_ascent_direction`` gives; a trial is accepted when it gains
    ``_ARMIJO`` of its first-order prediction (or both are at rounding
    level), else alpha halves for the next sweep.  A pair retires only when
    its projected gradient vanishes or at the sweep cap, never on a failed
    line search.  Returns the best point evaluated,
    starting from the highest scan-grid maximum.
    """
    best_pt, best_val = grid.points[max_ids[0]].copy(), float(grid_values[max_ids[0]])
    owner, boxes = grid.incident_boxes(max_ids)
    x = grid.points[max_ids[owner]]
    lo, hi = manifold.box_bounds(boxes)
    t, g, H = _t_hessian_at(spec.kernel, spec.ensemble, x)  # scale invariance: no normalization
    pgn = _projected_gradient_norm(x, g, lo, hi)
    alpha = np.ones(len(x))
    for _ in range(_MAX_SWEEPS):  # the state of the running pairs only; retired ones are dropped
        running = pgn > _GTOL
        if not running.all():
            if not running.any():
                break
            x, t, g, H, lo, hi, pgn, alpha = (v[running] for v in (x, t, g, H, lo, hi, pgn, alpha))
        d = _ascent_direction(x, g, H, lo, hi, pgn)
        trial = np.clip(x + alpha[:, None] * d, lo, hi)
        tt, gt, Ht = _t_hessian_at(spec.kernel, spec.ensemble, trial)
        top = int(np.argmax(tt))
        if tt[top] > best_val:
            best_pt, best_val = trial[top].copy(), float(tt[top])
        predicted = np.maximum(np.einsum("kd,kd->k", g, trial - x), 0.0)
        noise = _NOISE * np.maximum(np.abs(t), 1.0)
        gain = tt - t
        ok = (gain >= _ARMIJO * predicted) | ((predicted <= noise) & (gain >= -noise))
        x, g = np.where(ok[:, None], trial, x), np.where(ok[:, None], gt, g)
        t, H = np.where(ok, tt, t), np.where(ok[:, None, None], Ht, H)
        alpha = np.where(ok, 1.0, 0.5 * alpha)
        pgn = _projected_gradient_norm(x, g, lo, hi)  # a rejected pair's is its own again
    return best_pt, best_val


def _projected_gradient_norm(x, g, lo, hi):
    """Max-norm of x - P(x + g) per pair: zero exactly at a KKT point of the
    box-constrained ascent (L-BFGS-B's projected gradient)."""
    return np.max(np.abs(x - np.clip(x + g, lo, hi)), axis=1)


def _ascent_direction(x, g, H, lo, hi, pgn):
    """Per-pair ascent directions, (K, D), ``pgn`` the pairs' projected-gradient norms.

    Coordinates at (within the projected-gradient norm of) a bound that the
    gradient pushes outward are held out of the Newton system; the
    projection clamps them to the bound.  The free block F takes
    -H_FF^{-1} g_F with the eigenvalues of -H_FF replaced by their
    (floored) moduli: the Newton step where the block is negative definite,
    an ascent direction across saddles.  The gradient, scaled so that its
    largest free component spans the box, replaces that step where the
    block has no concave direction and where the step is longer than the
    box (the quadratic model is extrapolated too far).
    """
    width = np.max(hi - lo, axis=1, keepdims=True)
    eps = np.minimum(pgn[:, None], 1e-3 * width)
    held = ((x - lo <= eps) & (g < 0)) | ((hi - x <= eps) & (g > 0))
    free_g = np.max(np.abs(np.where(held, 0.0, g)), axis=1, keepdims=True)
    scale = np.where(free_g > 0, free_g, np.max(np.abs(g), axis=1, keepdims=True))
    steep = g * (width / np.maximum(scale, 1e-300))
    # held rows and columns become -I: out of the Newton system, never concave
    A = np.where(held[:, :, None] | held[:, None, :], -np.eye(x.shape[1]), -H)
    w, V = np.linalg.eigh(A)
    convex = w[:, -1] <= 0
    w = np.maximum(np.abs(w), _MIN_CURVATURE * np.max(np.abs(w), axis=1, keepdims=True))
    newton = np.einsum("kdi,ki->kd", V, np.einsum("kdi,kd->ki", V, np.where(held, 0.0, g)) / w)
    gradient_step = convex | (np.max(np.abs(newton), axis=1) > width[:, 0])
    return np.where(held | gradient_step[:, None], steep, newton)


# ---------------------------------------------------------------------------
# FWER simulation protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FwerReport:
    """Estimated familywise error rates per resolution mode.

    ``modes`` maps "r0" / "r1" / "rinf" to dicts with the estimated rate,
    its binomial standard error, and (grid modes) the mean count of local
    maxima above the per-replication threshold, which estimates the expected
    excursion EC.
    """

    preset: str
    fwhm: float
    n_subjects: int
    n_reps: int
    alpha: float
    seed: int
    modes: dict
    mean_threshold: float
    n_failures: int
    details: dict | None = None  # per-replication arrays; not serialized

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "details"}


@lru_cache(maxsize=4)
def _run_context(preset: str, fwhm: float) -> tuple:
    """A run's domain, interior manifold, kernel, r = 1 and r = 0 grids and lattice
    points' ids (the r = 1 grid's even keys); 0.21 / 14.1 MB for stat2d / stat3d once
    used."""
    dom = make_domain_preset(preset, fwhm)
    inner = dom.interior or dom
    man = VoxelManifold(inner)
    grid1 = refined_grid(man, 1)
    kern = GaussianKernel.isotropic(fwhm, dom.dimension)
    return dom, man, kern, grid1, refined_grid(man, 0), grid1._lookup_ids(inner.axis_index * (grid1.r + 1))


def _fwer_settings(preset, fwhm, n_subjects, n_reps, alpha, *, r_lkc, rng, threads, starts=10) -> RngSpec:
    """The master RngSpec of ``fwer_experiment``'s settings, each refused unless the run can read it."""
    for name, value, least in (("n_subjects", n_subjects, 2), ("n_reps", n_reps, 1), ("starts", starts, 1),
                               ("threads", threads, 1)):
        _check_count(name, value, least)
    _added_resolution(r_lkc, "r_lkc", lattice=False)
    if not isinstance(rng, RngSpec):
        rng = RngSpec(_check_count("rng", rng, 0))
    if rng.stream != 0:
        raise ValueError(f"rng must be a master (stream 0) spec, got stream {rng.stream}")
    _check_alpha(alpha)
    if preset not in PRESET_NAMES:
        raise ValueError(f"unknown preset {preset!r}; expected one of {PRESET_NAMES}")
    if isinstance(fwhm, bool) or not (isinstance(fwhm, (int, float, np.integer, np.floating))
                                      and 0 < fwhm < math.inf):
        raise ValueError(f"fwhm must be a positive finite number, got {fwhm!r}")
    if preset.startswith("stat"):
        _stationary_box(preset, fwhm)
    return rng


def fwer_experiment(
    preset: str,
    fwhm: float,
    n_subjects: int,
    n_reps: int,
    alpha: float = 0.05,
    *,
    r_lkc: int = 1,
    starts: int = 10,
    rng: RngSpec | int = 0,
    threads: int = 1,
    keep_details: bool = False,
) -> FwerReport:
    """Estimate attained FWER of the expected-EC threshold on a preset.

    Per replication: draw the null ensemble, estimate curvatures at added
    resolution ``r_lkc``, solve for the t threshold at level alpha, and test
    whether the supremum of the t field exceeds it on the voxel lattice
    (r=0), on the resolution-1 grid, and over the whole box union (rinf, by
    multistart ascent seeded at the grid peaks).  All three use the same
    realizations and the same per-replication threshold, so the indicator
    rates are monotone by construction.  ``rng`` is a master RngSpec or its
    seed (an integer >= 0).  The replications run in order in the calling
    thread; ``threads`` (an integer >= 1) changes nothing.
    """
    rng = _fwer_settings(preset, fwhm, n_subjects, n_reps, alpha, r_lkc=r_lkc, starts=starts, rng=rng,
                         threads=threads)
    dom, man, kern, grid1, grid0, lattice_ids = _run_context(preset, float(fwhm))
    grid_lkc = grid1 if r_lkc == 1 else refined_grid(man, r_lkc)  # never cached: r = 9 in 3-D is 100s of MB
    ftype = FieldType.student_t(n_subjects - 1)

    rows, errors = [], []
    for b in range(n_reps):
        try:
            spec = SurfSpec(sample_ensemble(dom, n_subjects, rng.substream(b)), kern)
            with _reading(grid1) as kept:  # the LKC's value column, where lkc kept it, is the t grid's
                lk = lkc_compute(spec.ensemble, kern, man, r_lkc, grid=grid_lkc)
            u_hat = threshold(lk, ftype, alpha)
            tvals = _t_from_arrays(kept[0])[0] if kept else t_field_on_grid(spec, grid1)
            max_ids = _grid_local_maxima(grid1, tvals)
            # the ascent starts from the grid maximum, so sup_inf >= sup1
            _, sup_inf = _ascend(spec, man, grid1, tvals, max_ids[:starts])
        except DegenerateFieldError as e:
            errors.append(e)
            continue
        rows.append((u_hat, float(tvals[lattice_ids].max()), float(tvals.max()), sup_inf,
                     count_local_maxima_above(grid0, tvals[lattice_ids], u_hat),
                     int(np.count_nonzero(tvals[max_ids] > u_hat))))
    if not rows:
        raise DegenerateFieldError(f"all {n_reps} replications degenerated, the first: {errors[0]}")
    cols = dict(zip(("u_hat", "sup0", "sup1", "sup_inf", "n_max0", "n_max1"), map(np.array, zip(*rows))))
    modes = {}
    for mode, sup, n_max in (("r0", "sup0", "n_max0"), ("r1", "sup1", "n_max1"), ("rinf", "sup_inf", None)):
        p = float(np.mean(cols[sup] > cols["u_hat"]))
        modes[mode] = {"fwer": p, "std_error": math.sqrt(p * (1.0 - p) / len(rows)),
                       "eec": None if n_max is None else float(cols[n_max].mean())}
    return FwerReport(
        preset=preset,
        fwhm=fwhm,
        n_subjects=n_subjects,
        n_reps=n_reps,
        alpha=alpha,
        seed=rng.seed,
        modes=modes,
        mean_threshold=float(cols["u_hat"].mean()),
        n_failures=n_reps - len(rows),
        details=cols if keep_details else None,
    )


# ---------------------------------------------------------------------------
# Localization and non-degeneracy
# ---------------------------------------------------------------------------


def localization_support(kernel: GaussianKernel, domain: VoxelSet, x: np.ndarray) -> np.ndarray:
    """Indices of voxels whose kernel weight at x is non-zero.

    A rejection at x implicates a positive mean at one of these voxels; for
    the untruncated Gaussian that is the whole voxel set.
    """
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    k = kernel.pairwise_value(x, domain.coords)[0]
    return np.nonzero(k != 0.0)[0]


@dataclass(frozen=True)
class NondegeneracyReport:
    rank: int
    required: int
    passed: bool
    n_support_voxels: int


def nondegeneracy_check(
    kernel: GaussianKernel, domain: VoxelSet, x: np.ndarray
) -> NondegeneracyReport:
    """Numeric-rank diagnostic of the stacked kernel-derivative vectors.

    Builds, per support voxel, the vector (K, grad K, half-vec Hess K) at x
    and checks that the resulting |support| x (D + 1 + D(D+1)/2) matrix has
    full column rank (singular values above 1e-10 of the largest).  Full
    rank certifies the non-degeneracy the excursion theory needs at x.
    """
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    D = kernel.dimension
    K, G, H = (a[0] for a in kernel._pairwise(x, domain.coords, 2))
    support = K != 0.0
    K, G, H = K[support], G[support], H[support]
    tri = [(d, e) for e in range(D) for d in range(e, D)]  # half-vectorization order
    cols = [K] + [G[:, d] for d in range(D)] + [H[:, d, e] for d, e in tri]
    mat = np.column_stack(cols)
    required = D + 1 + D * (D + 1) // 2
    if mat.shape[0] == 0:
        return NondegeneracyReport(0, required, False, 0)
    sv = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(sv > 1e-10 * sv[0]))
    return NondegeneracyReport(rank, required, rank == required, len(K))
