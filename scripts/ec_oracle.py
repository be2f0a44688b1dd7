"""An Euler-characteristic oracle for the white-noise curvatures of a voxel
manifold, printed beside ``lkc_compute``'s for the ragged nonstat3d shell.

    PYTHONPATH=src python scripts/ec_oracle.py [N_FIELDS [SEED]]

It draws N_FIELDS (default 400) white-noise fields on the shell, smooths them
on the refined grid and divides them by their white-noise standard deviation,
so each is a unit-variance Gaussian field.  The Euler characteristic of a
field's upper excursion set {f >= u} is counted on the refined grid's cubical
complex, read from ``grid.id_map``: a cell (a vertex, an edge, a square or a
cube of neighbouring grid points) belongs to the complex when all its corners
are grid points, and to the excursion set when all its corners reach u.  The
curves at ``LEVELS`` (161 levels in [-4, 4]) are fitted by least squares to
E chi(u) = sum_d L_d rho_d(u) with L_0 = chi(M) fixed, as in the Hermite
projection of Telschow, Cheng, Pranav & Schwartzman (Ann. Statist. 2023).  The
fit is linear, so the fit of the mean curve is the mean of the per-field fits,
whose spread gives each curvature's standard error.

The oracle reads no metric, angle or quadrature table, so it checks L_D and
L_(D-1) independently; for the shell's L_1 it shows how far the locally
stationary edge term lies from the truth.  One row per (FWHM, r): the fitted
L_1, L_2 and L_3 with their standard errors, each beside ``lkc_compute``'s.
The grid is finer at larger r, so the fit converges in r too.
"""
from __future__ import annotations

import itertools
import sys
import time

import numpy as np

from surfield.inference import FieldType, ec_density
from surfield.kernel import GaussianKernel
from surfield.lattice import FieldEnsemble, make_domain_preset
from surfield.lkc import lkc_compute
from surfield.manifold import VoxelManifold, euler_characteristic, refined_grid
from surfield.surf import _white_noise_moments, smooth_on_grid

LEVELS = np.linspace(-4.0, 4.0, 161)
_BATCH_ENTRIES = 1 << 21  # field x key-box entries of one batch's cell minima


def excursion_ec(grid, values: np.ndarray) -> np.ndarray:
    """(N, len(LEVELS)) Euler characteristics of the excursion sets {f >= u} of
    the (N, P) grid fields ``values`` at each level u, on the grid's cubical complex."""
    N, L, D = len(values), len(LEVELS), grid.dimension
    step = (LEVELS[-1] - LEVELS[0]) / (L - 1)
    present = grid.id_map >= 0
    corners = np.full((N, *grid.id_map.shape), -np.inf)  # no cell with a missing corner reaches u
    corners[:, present] = values[:, grid.id_map[present]]
    minima = {(): corners}  # per set S of axes, the least corner of each cell spanning S
    ec = np.zeros((N, L), dtype=np.int64)
    for S in itertools.chain.from_iterable(itertools.combinations(range(D), j) for j in range(D + 1)):
        if S:
            low, lead = minima[S[:-1]], (slice(None),) * (1 + S[-1])
            minima[S] = np.minimum(low[(*lead, slice(None, -1))], low[(*lead, slice(1, None))])
        # a cell with least corner m lies in the excursion sets of the levels up to m:
        # count it in bin 1 + (index of the highest such level), bin 0 if none
        bins = np.clip(np.floor((minima[S].reshape(N, -1) - LEVELS[0]) / step), -1, L - 1).astype(np.int64)
        bins += 1 + (L + 1) * np.arange(N)[:, None]
        per_bin = np.bincount(bins.ravel(), minlength=N * (L + 1)).reshape(N, L + 1)
        ec += (-1) ** len(S) * np.cumsum(per_bin[:, ::-1], axis=1)[:, ::-1][:, 1:]
    return ec


def normalized_white_noise(grid, kernel, domain, n_fields: int, rng: np.random.Generator):
    """Batches of (n, P) smoothed white-noise fields on the grid, each divided by
    its white-noise standard deviation; ``n_fields`` fields in all."""
    sigma = np.sqrt(_white_noise_moments(kernel, domain, False, grid=grid)[0])
    batch = max(1, _BATCH_ENTRIES // grid.id_map.size)
    for start in range(0, n_fields, batch):
        ens = FieldEnsemble(domain, rng.standard_normal((min(batch, n_fields - start), domain.n_voxels)))
        yield smooth_on_grid(ens, kernel, grid)["value"] / sigma


def fit_lkcs(ec: np.ndarray, chi: int) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares L_1..L_3 of the (N, len(LEVELS)) EC curves of a 3-D manifold,
    L_0 = chi: the mean of the per-field fits and its standard error."""
    gauss = FieldType.gaussian()
    rho = np.column_stack([ec_density(gauss, d, LEVELS) for d in (1, 2, 3)])
    target = ec - chi * ec_density(gauss, 0, LEVELS)
    fits = np.linalg.lstsq(rho, target.T, rcond=None)[0]  # (D, N)
    return fits.mean(axis=1), fits.std(axis=1, ddof=1) / np.sqrt(len(ec))


def oracle(fwhm: float, r: int, n_fields: int, seed: int):
    """(fitted L_1..L_3, their standard errors, lkc_compute's L_1..L_3) on the shell."""
    dom = make_domain_preset("nonstat3d")
    man, kern = VoxelManifold(dom), GaussianKernel.isotropic(fwhm, 3)
    grid = refined_grid(man, r)
    chi = euler_characteristic(man)
    ec = np.concatenate([excursion_ec(grid, f) for f in
                         normalized_white_noise(grid, kern, dom, n_fields, np.random.default_rng(seed))])
    fit, se = fit_lkcs(ec, chi)
    return fit, se, np.array(lkc_compute("white-noise", kern, man, r, grid=grid).values[1:])


def main(argv: list[str]) -> None:
    n_fields = int(argv[0]) if argv else 400
    seed = int(argv[1]) if len(argv) > 1 else 1
    print(f"nonstat3d shell, {n_fields} white-noise fields, seed {seed}, {len(LEVELS)} levels in [-4, 4]")
    print("fwhm  r  L1 fit       L1 lkc   L2 fit        L2 lkc   L3 fit        L3 lkc   seconds")
    for fwhm in (2.0, 3.0):
        for r in (1, 3, 5):
            t0 = time.perf_counter()
            fit, se, lkc = oracle(fwhm, r, n_fields, seed)
            cols = "".join(f"{f:7.2f} ±{s:5.2f} {v:8.2f}  " for f, s, v in zip(fit, se, lkc))
            print(f"{fwhm:4g} {r:2d}  {cols}{time.perf_counter() - t0:5.1f}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
