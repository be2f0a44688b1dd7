"""Independent output checks: references computed apart from surfield.

Nothing here imports surfield.  The references are plain numpy and scipy:
a dense direct-sum t field with the benchmark's own Gaussian weights, the
Student-t EC densities written out from Worsley (1994), a scipy root-finder
for the expected-EC threshold, the published theory table of the padded 3D
box, and the stationary closed form.  Each check returns a list of failure
messages; an empty list is a pass.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy import optimize, special, stats

from bench import inputs

# Tolerances stated in bench/README.md.
SUP_RTOL = 1e-9  # sup0 / sup1 against the dense direct-sum t field
U_HAT_TOL = 0.05  # FWHM-3 u_hat against the threshold of the theory LKCs
EEC_TOL = 1e-7  # |EEC(u) - alpha| at the printed CLI threshold
Z_MAX = 5.0  # |mean - white noise| / standard error, per L_d
TABLE_RTOL = 0.01  # 3D white-noise LKCs against the paper's table
CLOSED_RTOL = 1e-3  # 3D white-noise LKCs against the closed form, FWHM >= 2
RINF_QUANTILE = 0.999

# Published theoretical LKCs (L1, L2[, L3]) of the boundary-padded boxes.
THEORY_D2_FWHM3 = (22.20, 123.23)
THEORY_D3 = {
    1.0: (87.91, 2576.13, 25163.37), 1.5: (66.24, 1462.77, 10766.66),
    2.0: (49.95, 831.72, 4616.20), 2.5: (39.96, 532.34, 2363.73),
    3.0: (33.30, 369.68, 1367.90), 3.5: (28.54, 271.60, 861.42),
    4.0: (24.98, 207.94, 577.08),
}


# ---------------------------------------------------------------------------
# Dense direct-sum t field
# ---------------------------------------------------------------------------


def gaussian_weights(points: np.ndarray, voxels: np.ndarray, fwhm: float) -> np.ndarray:
    """exp(-4 log 2 |x - v|^2 / f^2) for every point-voxel pair."""
    d2 = ((points[:, None, :] - voxels[None, :, :]) ** 2).sum(axis=-1)
    return np.exp(-4.0 * math.log(2.0) * d2 / fwhm**2)


def dense_t(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """One-sample t statistic (N - 1 denominator) of the smoothed fields."""
    smooth = values @ weights.T
    n = smooth.shape[0]
    return math.sqrt(n) * smooth.mean(axis=0) / smooth.std(axis=0, ddof=1)


_STAT2D_AXIS = np.arange(1, 42) * 0.5  # resolution-1 grid of [1, 20]: 0.5, 1.0, ..., 20.5
_STAT2D_GRID = np.column_stack([g.ravel() for g in np.meshgrid(_STAT2D_AXIS, _STAT2D_AXIS, indexing="ij")])
_STAT2D_ON_LATTICE = np.all(_STAT2D_GRID == np.round(_STAT2D_GRID), axis=1)


@lru_cache(maxsize=None)
def _stat2d_weights(fwhm: float) -> tuple[int, np.ndarray]:
    voxels = inputs.padded_stat_box(fwhm, 2)
    return len(voxels), gaussian_weights(_STAT2D_GRID, voxels, fwhm)


def stat2d_suprema(master_seed: int, fwhm: float, n_subjects: int) -> tuple[float, float]:
    """(sup0, sup1) of a stat2d null replication: the t field's maximum on
    the voxel lattice of [1, 20]^2 and on its resolution-1 grid (step 1/2,
    box boundaries included)."""
    n_vox, weights = _stat2d_weights(fwhm)
    t = dense_t(inputs.null_draws(master_seed, 0, n_subjects, n_vox), weights)
    return float(t[_STAT2D_ON_LATTICE].max()), float(t.max())


# ---------------------------------------------------------------------------
# Student-t expected Euler characteristic
# ---------------------------------------------------------------------------


def t_ec_density(d: int, u, nu: float):
    """Worsley's EC densities rho_d of a Student-t field with nu dof."""
    u = np.asarray(u, dtype=np.float64)
    if d == 0:
        return stats.t.sf(u, nu)
    power = (1.0 + u * u / nu) ** (-(nu - 1.0) / 2.0)
    if d == 1:
        return power / (2.0 * math.pi)
    if d == 2:
        c = math.exp(special.gammaln((nu + 1.0) / 2.0) - special.gammaln(nu / 2.0))
        return c * u * power / (math.sqrt(nu / 2.0) * (2.0 * math.pi) ** 1.5)
    if d == 3:
        return ((nu - 1.0) / nu * u * u - 1.0) * power / (2.0 * math.pi) ** 2
    raise ValueError("d must be 0..3")


def eec(lkcs, u, nu: float):
    return sum(L * t_ec_density(d, u, nu) for d, L in enumerate(lkcs))


def solve_threshold(lkcs, nu: float, alpha: float) -> float:
    """Largest u with EEC(u) = alpha, by brentq on the last sign change of a
    scan over [0, 30]."""
    us = np.linspace(0.0, 30.0, 3001)
    f = eec(lkcs, us, nu) - alpha
    i = np.nonzero((f[:-1] > 0) & (f[1:] <= 0))[0][-1]
    return optimize.brentq(lambda u: eec(lkcs, u, nu) - alpha, us[i], us[i + 1], xtol=1e-14)


def closed_form_box(sides, fwhm: float) -> list[float]:
    """(4 log 2)^(d/2) V_d / f^d for a box with the given side lengths."""
    D = len(sides)
    V = [1.0] + [
        sum(math.prod(c) for c in combinations(sides, d)) for d in range(1, D + 1)
    ]
    return [V[d] * (4.0 * math.log(2.0)) ** (d / 2.0) / fwhm**d for d in range(D + 1)]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_fwer_rep(rep: dict, ref_sup: tuple[float, float], u_ref: float) -> list[str]:
    """One replication: ordering of the suprema, sup0/sup1 against the dense
    field, and (FWHM 3) u_hat against the theory-LKC threshold."""
    bad = []
    if not rep["sup0"] <= rep["sup1"] <= rep["sup_inf"]:
        bad.append(f"suprema out of order {rep['sup0']}, {rep['sup1']}, {rep['sup_inf']}")
    for key, ref in zip(("sup0", "sup1"), ref_sup):
        if not _rel(rep[key], ref) <= SUP_RTOL:
            bad.append(f"{key} {rep[key]!r} differs from direct sum {ref!r}")
    if rep["fwhm"] == 3.0 and not abs(rep["u_hat"] - u_ref) <= U_HAT_TOL:
        bad.append(f"u_hat {rep['u_hat']} is not within {U_HAT_TOL} of {u_ref}")
    return bad


def rinf_limit(n: int, alpha: float) -> int:
    """Binomial 99.9 % quantile of the exceedance count of n replications."""
    return int(stats.binom.ppf(RINF_QUANTILE, n, alpha))


def check_cli_op(lkcs, u_printed: float, nu: float, alpha: float) -> list[str]:
    """L0 of the shell and the printed threshold against the own EEC."""
    bad = []
    if lkcs[0] != 2.0:
        bad.append(f"L0 = {lkcs[0]}, expected 2 for a shell homotopic to a sphere")
    gap = abs(eec(lkcs, u_printed, nu) - alpha)
    if not gap <= EEC_TOL:
        bad.append(f"EEC({u_printed}) differs from alpha by {gap:.3g}")
    return bad


def unbiasedness_z(estimates: np.ndarray, white_noise) -> np.ndarray:
    """z of the mean of each L_1..L_D over ensembles against the white-noise
    values of the same domain."""
    est = np.asarray(estimates, dtype=np.float64)[:, 1:]
    wn = np.asarray(white_noise, dtype=np.float64)[1:]
    se = est.std(axis=0, ddof=1) / math.sqrt(len(est))
    return (est.mean(axis=0) - wn) / se


def check_wn(fwhm: float, lkcs) -> list[str]:
    """L0 = 1, table within 1 %, closed form within 1e-3 for FWHM >= 2."""
    bad = []
    if lkcs[0] != 1.0:
        bad.append(f"L0 = {lkcs[0]}, expected 1 for a box")
    for d, ref in enumerate(THEORY_D3[fwhm], start=1):
        if not _rel(lkcs[d], ref) <= TABLE_RTOL:
            bad.append(f"L{d} = {lkcs[d]} is not within 1 % of the table value {ref}")
    if fwhm >= 2.0:
        closed = closed_form_box((20.0, 20.0, 20.0), fwhm)
        for d in (1, 2, 3):
            if not _rel(lkcs[d], closed[d]) <= CLOSED_RTOL:
                bad.append(f"L{d} = {lkcs[d]} is not within 1e-3 of the closed form {closed[d]}")
    return bad
