import json
import math
import re

import numpy as np
import pytest
import scipy.stats as st

from surfield.cli import main
from surfield.inference import (
    FieldType,
    ThresholdError,
    count_local_maxima_above,
    ec_density,
    expected_euler_char,
    fwer_experiment,
    localization_support,
    maximize_t_field,
    nondegeneracy_check,
    threshold,
)
from surfield.kernel import GaussianKernel
from surfield.lattice import FieldEnsemble, RngSpec, VoxelSet, make_domain_preset, sample_ensemble
from surfield.lkc import lkc_compute
from surfield.manifold import VoxelManifold, refined_grid
from surfield.surf import DegenerateFieldError, SurfSpec, surf_covariance, t_field, t_field_on_grid


# ---------------------------------------------------------------------------
# EC densities and thresholds
# ---------------------------------------------------------------------------


def test_marginal_tails_match_scipy_stats_bit_for_bit():
    # rho_0 reads scipy.special directly; the threshold sweep and other
    # levels give the same bits as the scipy.stats survival functions
    u = np.concatenate([np.linspace(-10.0, 50.0, 4097), np.random.default_rng(3).uniform(-6, 12, 6000)])
    np.testing.assert_array_equal(ec_density(FieldType.gaussian(), 0, u), st.norm.sf(u))
    for nu in (1, 9, 19, 49):
        np.testing.assert_array_equal(ec_density(FieldType.student_t(nu), 0, u), st.t.sf(u, df=nu))


def test_gaussian_density_examples():
    g = FieldType.gaussian()
    assert ec_density(g, 0, 1.6449) == pytest.approx(0.05, abs=2e-5)
    assert ec_density(g, 1, 0.0) == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)
    assert ec_density(g, 1, 0.0) == pytest.approx(0.159155, abs=5e-7)


def test_t_density_tail_identity():
    for nu in (5.0, 49.0):
        tt = FieldType.student_t(nu)
        q = st.t.isf(0.07, df=nu)
        assert ec_density(tt, 0, q) == pytest.approx(0.07, rel=1e-10)


def test_t_densities_approach_gaussian():
    tt = FieldType.student_t(4e6)
    g = FieldType.gaussian()
    for d in (1, 2, 3):
        for u in (0.5, 2.0, 3.5):
            assert ec_density(tt, d, u) == pytest.approx(ec_density(g, d, u), rel=1e-4)


def test_density_validation():
    with pytest.raises(ValueError):
        ec_density(FieldType.gaussian(), 4, 1.0)
    with pytest.raises(ValueError):
        FieldType.student_t(0.5)
    for nu in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"t requires finite degrees of freedom nu >= 1, got {nu}"):
            FieldType.student_t(nu)
    with pytest.raises(ValueError):
        FieldType("chi2")


def test_t_densities_keep_the_bits_of_the_inline_expressions():
    # the nu-dependent constants are computed once per nu; each density
    # equals its whole expression evaluated per level, bit for bit
    from scipy import special

    two_pi, rng = 2.0 * math.pi, np.random.default_rng(3)
    for nu in (49.0, 7.0):
        ratio = math.exp(special.gammaln((nu + 1.0) / 2.0) - special.gammaln(nu / 2.0))
        for u in [*rng.uniform(-6.0, 9.0, 500), np.linspace(-10.0, 50.0, 4097)]:
            base = (1.0 + u**2 / nu) ** (-(nu - 1.0) / 2.0)
            want = [special.stdtr(nu, -u), base / two_pi,
                    (two_pi) ** (-1.5) * ratio / math.sqrt(nu / 2.0) * u * base,
                    (two_pi) ** (-2.0) * ((nu - 1.0) / nu * u**2 - 1.0) * base]
            for d in range(4):
                assert np.array_equal(ec_density(FieldType.student_t(nu), d, u), want[d])


def test_threshold_reduces_to_normal_quantile():
    u = threshold([1.0, 0.0, 0.0, 0.0], FieldType.gaussian(), 0.025)
    assert u == pytest.approx(1.959964, abs=1e-6)


def test_threshold_monotone_in_alpha():
    L = [1.0, 20.0, 100.0]
    us = [threshold(L, FieldType.gaussian(), a) for a in (0.01, 0.05, 0.1)]
    assert us[0] > us[1] > us[2]


def test_threshold_against_grid_scan_oracle():
    # independent bracket: scan the expected-EC curve on a fine grid and
    # locate the rightmost crossing
    L = [1.0, 55.50]
    g = FieldType.gaussian()
    us = np.linspace(0.0, 10.0, 2_000_001)
    vals = L[0] * st.norm.sf(us) + L[1] * np.exp(-(us**2) / 2) / (2 * math.pi)
    i = np.nonzero((vals[:-1] >= 0.05) & (vals[1:] < 0.05))[0][-1]
    want = us[i]
    got = threshold(L, g, 0.05)
    assert got == pytest.approx(want, abs=1e-5)


def test_threshold_round_trip():
    L = [1.0, 22.2, 123.2]
    for alpha in (0.01, 0.05):
        for ft in (FieldType.gaussian(), FieldType.student_t(49)):
            u = threshold(L, ft, alpha)
            assert abs(expected_euler_char(L, ft, u) - alpha) < 1e-7


@pytest.mark.parametrize("lkcs, alpha, message", [
    ([1.0, -1e9, 100.0], 0.05, "lkcs needs L_D > 0 and, for D >= 2, L_(D-1) > 0, got (1.0, -1000000000.0, 100.0)"),
    ([1.0, 0.0, 100.0], 0.05, "lkcs needs L_D > 0 and, for D >= 2, L_(D-1) > 0, got (1.0, 0.0, 100.0)"),
    ([1.0, 20.0, -100.0], 0.05, "lkcs needs L_D > 0 and, for D >= 2, L_(D-1) > 0, got (1.0, 20.0, -100.0)"),
    ([1.0, math.nan, 100.0], 0.05, "lkcs must be finite numbers L_0, .., L_D, got (1.0, nan, 100.0)"),
    ([], 0.05, "lkcs must be finite numbers L_0, .., L_D, got ()"),
    ([1.0, 20.0, 100.0], 1.5, "alpha must lie in (0, 1), got 1.5"),
    ([1.0, 20.0, 100.0], True, "alpha must lie in (0, 1), got True"),
])
def test_threshold_refuses_what_lkc_vector_and_fwer_experiment_refuse(lkcs, alpha, message):
    # a plain sequence obeys LkcVector's rule (trailing zeros allowed), alpha fwer_experiment's
    with pytest.raises(ValueError, match=re.escape(message)):
        threshold(lkcs, FieldType.student_t(40), alpha)
    assert threshold([1.0, 20.0, 0.0, 0.0], FieldType.student_t(40), 0.05) == threshold(
        [1.0, 20.0], FieldType.student_t(40), 0.05)


def test_threshold_no_root_reported():
    # expected EC tops out at L0 = 0.5, so alpha = 0.9 has no solution
    with pytest.raises(ThresholdError):
        threshold([0.5], FieldType.gaussian(), 0.9)


def _swept_threshold(lkcs, ftype, alpha, tol=1e-12):
    """The threshold as the expected-EC sweep and bisection compute it, with
    every level of the sweep evaluated by expected_euler_char."""
    us = np.linspace(-10.0, 50.0, 4097)
    vals = expected_euler_char(lkcs, ftype, us)
    big = np.nonzero(vals >= 1.0)[0]
    lo_idx = big[-1] if big.size else 0
    crossings = np.nonzero((vals[:-1] >= alpha) & (vals[1:] < alpha))[0]
    crossings = crossings[crossings >= lo_idx]
    if crossings.size == 0:
        return None
    i = crossings[-1]
    lo, hi = us[i], us[i + 1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if expected_euler_char(lkcs, ftype, mid) >= alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("ftype", [FieldType.gaussian(), FieldType.student_t(9), FieldType.student_t(49)])
def test_threshold_from_cached_sweep_densities_keeps_the_bits(ftype):
    # the sweep reads its densities from a cache shared by equal field types;
    # the levels, the order of the additions and the bisection are unchanged
    from functools import partial

    from surfield.inference import _eec, _sweep_density

    rng, solved, us = np.random.default_rng(24), 0, np.linspace(-10.0, 50.0, 4097)
    for D in (1, 2, 3):
        for L0 in (1.0, 0.0, -1.0, -3.5):
            for _ in range(4):
                lkcs = [L0, *(10.0 ** rng.uniform(0.0, 1.5 + d) for d in range(D))]
                sweep = _eec(lkcs, partial(_sweep_density, ftype), us.shape)
                assert np.array_equal(sweep, expected_euler_char(lkcs, ftype, us))
                for alpha in (0.05, 0.01):
                    want = _swept_threshold(lkcs, ftype, alpha)
                    if want is None:
                        with pytest.raises(ThresholdError):
                            threshold(lkcs, ftype, alpha)
                        continue
                    solved += 1
                    assert threshold(lkcs, ftype, alpha) == want
                    assert threshold(lkcs, FieldType(ftype.kind, ftype.nu), alpha) == want
    assert solved >= 80
    assert _sweep_density(ftype, 1) is _sweep_density(FieldType(ftype.kind, ftype.nu), 1)


# ---------------------------------------------------------------------------
# Local maxima
# ---------------------------------------------------------------------------


def grid_1d(n):
    return refined_grid(VoxelManifold(VoxelSet(np.arange(float(n))[:, None])), 0)


def grid_box(*n):
    axes = np.meshgrid(*[np.arange(float(k)) for k in n], indexing="ij")
    return VoxelSet(np.column_stack([a.ravel() for a in axes]))


def _masked_box(seed, D):
    """Random subset of a box with one whole slab removed, so the index
    lattice has a gap along axis 0."""
    rng = np.random.default_rng(seed)
    coords = grid_box(*[7 if D == 2 else 5] * D).coords
    keep = (rng.random(len(coords)) < 0.7) & (coords[:, 0] != 2.0)
    return VoxelSet(coords[keep])


def _brute_force_maxima(keys, vals):
    """Local maxima from pairwise key distances and a flood fill: plateaus of
    equal stencil neighbours (max-norm distance 1), each a maximum when no
    member has a greater neighbour, given by its first member in the order of
    ``np.argsort(vals)[::-1]``; and the size of the largest such plateau."""
    nbr = np.abs(keys[:, None, :] - keys[None, :, :]).max(axis=2) == 1
    seen, want, largest = np.zeros(len(vals), dtype=bool), [], 0
    for i in np.argsort(vals)[::-1]:
        if seen[i]:
            continue
        members, stack, seen[i] = [i], [i], True
        while stack:
            for j in np.nonzero(nbr[stack.pop()] & (vals == vals[i]) & ~seen)[0]:
                seen[j] = True
                members.append(j)
                stack.append(j)
        if not any(np.any(vals[nbr[m]] > vals[m]) for m in members):
            want.append(i)
            largest = max(largest, len(members))
    return np.array(want, dtype=np.int64), largest


@pytest.mark.parametrize(
    "case, r", [("box", 1), ("mask2d", 0), ("mask2d", 1), ("mask3d", 0), ("mask3d", 1), ("ties2d", 1),
                ("ties3d", 0)]
)
def test_grid_local_maxima_matches_brute_force(monkeypatch, case, r):
    from surfield import inference

    dom = {"box": grid_box(3, 3), "mask2d": _masked_box(1, 2), "mask3d": _masked_box(2, 3),
           "ties2d": _masked_box(3, 2), "ties3d": _masked_box(4, 3)}[case]
    g = refined_grid(VoxelManifold(dom), r)
    vals = np.random.default_rng(g.n_points).random(g.n_points)
    if case.startswith("ties"):  # four levels: plateaus of tied neighbours, some of them maxima
        vals = np.floor(4 * vals)
    else:  # no two neighbours tie, so no plateau graph is built
        monkeypatch.setattr(inference, "_sparse", None)
    if case == "box":  # an 8-neighbor centre and a 3-neighbor corner
        nbr = np.abs(g.keys[:, None, :] - g.keys[None, :, :]).max(axis=2) == 1
        centre = int(np.nonzero(np.all(g.keys == 2, axis=1))[0][0])
        corner = int(np.lexsort(g.keys.T[::-1])[0])
        assert nbr[centre].sum() == 8 and nbr[corner].sum() == 3
        vals[centre] += 2.0
        vals[corner] += 1.0
    want, largest = _brute_force_maxima(g.keys, vals)
    assert (largest > 1) == case.startswith("ties")
    got = inference._grid_local_maxima(g, vals)
    np.testing.assert_array_equal(got, want)
    if case == "box":
        assert {centre, corner} <= set(got.tolist())


@pytest.mark.parametrize("n", [76, 86])
def test_grid_values_of_wrong_length_rejected(n):
    dom = grid_box(4, 4)
    man = VoxelManifold(dom)
    g = refined_grid(man, 1)
    assert g.n_points == 81
    vals = np.linspace(0.0, 1.0, n)
    with pytest.raises(ValueError):
        count_local_maxima_above(g, vals, 0.5)
    spec = SurfSpec(sample_ensemble(dom, 4, RngSpec(0)), GaussianKernel.isotropic(2.0, 2))
    with pytest.raises(ValueError):
        maximize_t_field(spec, man, grid=g, grid_values=vals)


def test_count_maxima_single_and_double_bump():
    g = grid_1d(100)
    x = g.points[:, 0]
    one = np.exp(-((x - 30.0) ** 2) / 20.0)
    assert count_local_maxima_above(g, one, 0.5) == 1
    two = one + np.exp(-((x - 70.0) ** 2) / 20.0)
    assert count_local_maxima_above(g, two, 0.5) == 2
    assert count_local_maxima_above(g, two, 2.0) == 0


def test_count_maxima_plateau_counts_once():
    g = grid_1d(30)
    vals = np.zeros(30)
    vals[10:15] = 1.0
    assert count_local_maxima_above(g, vals, 0.5) == 1
    vals[20] = 2.0
    assert count_local_maxima_above(g, vals, 0.5) == 2
    g2 = refined_grid(VoxelManifold(grid_box(5, 5)), 0)
    at = lambda *c: int(np.nonzero(np.all(g2.points == c, axis=1))[0][0])
    vals = np.zeros(g2.n_points)
    vals[[at(1, 1), at(1, 2)]] = 1.0
    vals[at(2, 3)] = 2.0  # diagonal to (1, 2): only this point counts, not the plateau
    assert count_local_maxima_above(g2, vals, 0.5) == 1
    vals[:] = 0.0
    vals[[at(1, 1), at(2, 2)]] = 1.0  # touching only diagonally: one plateau
    assert count_local_maxima_above(g2, vals, 0.5) == 1


def test_count_maxima_respects_mask_neighbors():
    dom = make_domain_preset("nonstat1d")  # voxel 2 is excluded: 1 and 3 are not neighbors
    g = refined_grid(VoxelManifold(dom), 0)
    vals = np.zeros(g.n_points)
    coord = g.points[:, 0]
    i1, i3 = int(np.nonzero(coord == 1.0)[0][0]), int(np.nonzero(coord == 3.0)[0][0])
    vals[i1] = 1.0
    vals[i3] = 1.0
    assert count_local_maxima_above(g, vals, 0.5) == 2  # separated by the gap
    vals[:] = 0.0
    i5, i6 = int(np.nonzero(coord == 5.0)[0][0]), int(np.nonzero(coord == 6.0)[0][0])
    vals[i5] = 1.0
    vals[i6] = 2.0  # adjacent: 5 is dominated by 6
    assert count_local_maxima_above(g, vals, 0.5) == 1


# ---------------------------------------------------------------------------
# Continuous maximization
# ---------------------------------------------------------------------------


def bump_ensemble(center, n=6, eps=1e-3):
    dom = VoxelSet(np.array([[u, v] for u in range(8) for v in range(8)], dtype=float))
    base = np.exp(-0.5 * np.sum((dom.coords - center) ** 2, axis=1) / 1.5**2)
    rng = np.random.default_rng(70)
    rows = [base + eps * rng.standard_normal(dom.n_voxels) for _ in range(n)]
    return FieldEnsemble(dom, np.stack(rows))


def _dense_scan(spec, center, half, step):
    xs = np.arange(center[0] - half, center[0] + half + step / 2, step)
    ys = np.arange(center[1] - half, center[1] + half + step / 2, step)
    XX, YY = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([XX.ravel(), YY.ravel()])
    pts = np.clip(pts, -0.5, 7.5)
    tv = t_field(spec, pts)
    i = int(np.argmax(tv))
    return pts[i], float(tv[i])


def _dense_oracle(spec, man, candidates):
    """Best of 1e-3 then 1e-5 dense refinements around the candidates and the
    three highest basins of an r = 9 scan."""
    from surfield.inference import _grid_local_maxima
    from surfield.surf import t_field_on_grid

    scan_grid = refined_grid(man, 9)
    sv = t_field_on_grid(spec, scan_grid)
    basins = [scan_grid.points[i] for i in _grid_local_maxima(scan_grid, sv)[:3]]
    oracle_pt, oracle_val = None, -np.inf
    for c in list(candidates) + basins:
        p1, _ = _dense_scan(spec, np.asarray(c), 0.3, 1e-3)
        p2, v2 = _dense_scan(spec, p1, 2e-3, 1e-5)
        if v2 > oracle_val:
            oracle_pt, oracle_val = p2, v2
    return oracle_pt, oracle_val


def test_maximizer_beats_grid_and_matches_dense_scan():
    center = np.array([3.37, 4.21])
    ens = bump_ensemble(center)
    man = VoxelManifold(ens.domain)
    grid = refined_grid(man, 1)
    from surfield.surf import t_field_on_grid

    for k in (GaussianKernel.isotropic(2.0, 2), GaussianKernel.isotropic(2.0, 2, 6.0)):
        spec = SurfSpec(ens, k)
        gv = t_field_on_grid(spec, grid)
        pt, val = maximize_t_field(spec, man, starts=10, grid=grid, grid_values=gv)
        assert val >= gv.max() - 1e-12
        oracle_pt, oracle_val = _dense_oracle(spec, man, [pt])
        assert np.linalg.norm(pt - oracle_pt) < 1e-4
        assert val >= oracle_val - 1e-9 * max(1.0, abs(oracle_val))


@pytest.mark.parametrize("center, on_bound", [
    ((9.5, 3.3), {0: 7.5}),  # beyond the x = 7.5 face
    ((10.0, 9.0), {0: 7.5, 1: 7.5}),  # beyond the (7.5, 7.5) corner
])
def test_maximizer_finds_boundary_maximum(center, on_bound):
    # a bump plus a per-subject constant: the sample sd is the smoothed
    # constant, so t is a kernel-weighted average of the bump and peaks on
    # the part of the boundary nearest the outside centre
    dom = VoxelSet(np.array([[u, v] for u in range(8) for v in range(8)], dtype=float))
    base = np.exp(-0.5 * np.sum((dom.coords - np.asarray(center)) ** 2, axis=1) / 1.5**2)
    z = np.random.default_rng(70).standard_normal(6)
    spec = SurfSpec(FieldEnsemble(dom, base + 1e-3 * z[:, None]), GaussianKernel.isotropic(2.0, 2))
    man = VoxelManifold(dom)
    pt, val = maximize_t_field(spec, man, starts=10)
    for axis, bound in on_bound.items():
        assert pt[axis] == bound
    oracle_pt, oracle_val = _dense_oracle(spec, man, [pt])
    assert np.linalg.norm(pt - oracle_pt) < 1e-4
    assert val >= oracle_val - 1e-9 * max(1.0, abs(oracle_val))


def test_maximizer_crosses_saddle_region_to_the_box_maximum():
    # stat2d FWHM 1, replication 144 of criterion 4's rough run: the field is
    # convex along one axis between the start and the maximum, and a line
    # search there fails before the ascent arrives.  2.9945835398761638 is
    # what per-pair L-BFGS-B runs reached.
    dom = make_domain_preset("stat2d", 1.0)
    man = VoxelManifold(dom.interior)
    grid = refined_grid(man, 1)
    ens = sample_ensemble(dom, 50, RngSpec(20260811).substream(144))
    spec = SurfSpec(ens, GaussianKernel.isotropic(1.0, 2))
    from surfield.surf import t_field_on_grid

    gv = t_field_on_grid(spec, grid)
    _, val = maximize_t_field(spec, man, grid=grid, grid_values=gv)
    assert val >= 2.9945835398761638 - 1e-12


def test_maximizer_scale_invariant():
    ens = bump_ensemble(np.array([4.6, 2.3]))
    k = GaussianKernel.isotropic(2.0, 2)
    man = VoxelManifold(ens.domain)
    pt1, v1 = maximize_t_field(SurfSpec(ens, k), man, starts=3)
    scaled = FieldEnsemble(ens.domain, 4.0 * ens.values)
    pt2, v2 = maximize_t_field(SurfSpec(scaled, k), man, starts=3)
    assert np.allclose(pt1, pt2, atol=1e-8)
    assert v1 == pytest.approx(v2, rel=1e-10)


def test_maximizer_stays_inside_domain():
    ens = bump_ensemble(np.array([0.1, 0.1]))
    k = GaussianKernel.isotropic(2.0, 2)
    man = VoxelManifold(ens.domain)
    pt, _ = maximize_t_field(SurfSpec(ens, k), man, starts=3)
    assert np.all(pt >= -0.5) and np.all(pt <= 7.5)


# ---------------------------------------------------------------------------
# Kac-Rice Monte Carlo validation of the gaussian densities
# ---------------------------------------------------------------------------


def test_gaussian_densities_against_kac_rice_oracle():
    # mean EC of 1-D excursion sets of the normalized smoothed field equals
    # L0 rho_0 + L1 rho_1; estimate the left side by counting upcrossings
    # on a fine grid over 2000 replications
    f = 3.0
    dom = make_domain_preset("stat1d", f)
    inner = dom.interior
    man = VoxelManifold(inner)
    kern = GaussianKernel.isotropic(f, 1)
    lk = lkc_compute("white-noise", kern, man, 11, sample_domain=dom)
    grid = refined_grid(man, 11)
    order = np.argsort(grid.points[:, 0])
    pts = grid.points[order]
    K = kern.pairwise_value(pts, dom.coords)
    sigma = np.sqrt(np.einsum("pm,pm->p", K, K))
    B = 2000
    rng = RngSpec(314159)
    levels = np.array([2.0, 2.5, 3.0])
    counts = np.zeros((B, len(levels)))
    for b in range(B):
        z = rng.substream(b).generator().standard_normal(dom.n_voxels)
        field = (K @ z) / sigma
        for j, u in enumerate(levels):
            above = field >= u
            counts[b, j] = above[0] + np.sum(above[1:] & ~above[:-1])
    g = FieldType.gaussian()
    for j, u in enumerate(levels):
        want = expected_euler_char(lk, g, u)
        got = counts[:, j].mean()
        se = counts[:, j].std(ddof=1) / math.sqrt(B)
        assert abs(got - want) < 3 * max(se, 1e-4), (u, got, want, se)


# ---------------------------------------------------------------------------
# FWER harness
# ---------------------------------------------------------------------------


def test_fwer_smoke_and_nesting():
    rep = fwer_experiment("stat2d", 2.0, 20, 25, 0.10, rng=5)
    m = rep.modes
    assert 0.0 <= m["r0"]["fwer"] <= m["r1"]["fwer"] <= m["rinf"]["fwer"] <= 1.0
    assert rep.n_failures == 0
    assert rep.mean_threshold > 2.0


def test_replication_embeds_its_ensemble_once(embeddings):
    # the LKCs, the t grid and every ascent sweep read one data tensor
    rep = fwer_experiment("stat2d", 3.0, 8, 1, rng=3)
    assert rep.n_failures == 0
    assert len(embeddings) == 1 and embeddings[0].n_fields == 8


def test_fwer_deterministic_across_thread_counts():
    a = fwer_experiment("nonstat1d", 2.0, 15, 12, 0.1, rng=9, threads=1)
    b = fwer_experiment("nonstat1d", 2.0, 15, 12, 0.1, rng=9, threads=4)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        fwer_experiment("nonstat1d", 2.0, 15, 12, 0.1, rng=9, threads=0)


def test_fwer_all_degenerate_replications_raise(tmp_path, capsys):
    # at FWHM 1e-4 the smoothed fields vanish off the voxels: every
    # replication's sample variance is zero somewhere
    with pytest.raises(DegenerateFieldError, match="all 2 replications degenerated, the first: zero"):
        fwer_experiment("nonstat1d", 1e-4, 5, 2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "nonstat1d", "fwhm": 1e-4, "n_subjects": 5, "n_reps": 2}))
    assert main(["fwer-sim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: all 2 replications degenerated")
    assert "Traceback" not in err


def test_fwer_threads1_runs_replications_in_the_calling_thread(monkeypatch):
    import threading

    from surfield import inference

    seen = []

    def spy(*args, **kwargs):
        seen.append(threading.get_ident())
        return sample_ensemble(*args, **kwargs)

    monkeypatch.setattr(inference, "sample_ensemble", spy)
    one = fwer_experiment("nonstat1d", 2.0, 10, 3, 0.1, rng=9, threads=1, keep_details=True)
    assert seen == [threading.get_ident()] * 3
    two = fwer_experiment("nonstat1d", 2.0, 10, 3, 0.1, rng=9, threads=2, keep_details=True)
    assert seen == [threading.get_ident()] * 6  # at threads=2 too
    assert one.details.keys() == two.details.keys()
    for key in one.details:
        assert np.array_equal(one.details[key], two.details[key])


@pytest.mark.parametrize("kwargs, error, message", [
    ({"n_subjects": 2.5}, TypeError, "n_subjects must be an integer, got 2.5"),
    ({"n_subjects": True}, TypeError, "n_subjects must be an integer, got True"),
    ({"n_subjects": 1}, ValueError, "n_subjects must be >= 2, got 1"),
    ({"n_reps": 2.0}, TypeError, "n_reps must be an integer, got 2.0"),
    ({"n_reps": False}, TypeError, "n_reps must be an integer, got False"),
    ({"n_reps": 0}, ValueError, "n_reps must be >= 1, got 0"),
    ({"starts": 2.5}, TypeError, "starts must be an integer, got 2.5"),
    ({"starts": True}, TypeError, "starts must be an integer, got True"),
    ({"starts": 0}, ValueError, "starts must be >= 1, got 0"),
    ({"threads": 1.5}, TypeError, "threads must be an integer, got 1.5"),
    ({"preset": "stat4d"}, ValueError, "unknown preset 'stat4d'"),
    ({"fwhm": math.nan}, ValueError, "fwhm must be a positive finite number, got nan"),
    ({"fwhm": -1.0}, ValueError, "fwhm must be a positive finite number, got -1.0"),
    ({"fwhm": "3"}, ValueError, "fwhm must be a positive finite number, got '3'"),
    ({"fwhm": True}, ValueError, "fwhm must be a positive finite number, got True"),
    ({"alpha": 1.5}, ValueError, "alpha must lie in (0, 1), got 1.5"),
    ({"alpha": 0.0}, ValueError, "alpha must lie in (0, 1), got 0.0"),
    ({"alpha": math.nan}, ValueError, "alpha must lie in (0, 1), got nan"),
    ({"alpha": "0.05"}, ValueError, "alpha must lie in (0, 1), got '0.05'"),
    ({"r_lkc": 0}, ValueError, "r_lkc must be odd and positive, got 0"),
    ({"r_lkc": 1.0}, TypeError, "r_lkc must be an integer, got 1.0"),
    ({"r_lkc": True}, TypeError, "r_lkc must be an integer, got True"),
    ({"r_lkc": 2}, ValueError, "r_lkc must be odd and positive, got 2"),
    ({"r_lkc": np.int64(4)}, ValueError, "r_lkc must be odd and positive, got 4"),
    ({"rng": True}, TypeError, "rng must be an integer, got True"),
    ({"rng": "7"}, TypeError, "rng must be an integer, got '7'"),
    ({"rng": 7.0}, TypeError, "rng must be an integer, got 7.0"),
    ({"rng": -1}, ValueError, "rng must be >= 0, got -1"),
    ({"rng": np.int64(-1)}, ValueError, "rng must be >= 0, got -1"),
    ({"rng": RngSpec(7, 1)}, ValueError, "rng must be a master (stream 0) spec, got stream 1"),
    # a stationary preset's padded box, refused before it is allocated
    ({"fwhm": 1e308}, ValueError, "fwhm 1e+308 pads the stat2d box to more than 134,217,728 voxels"),
    ({"fwhm": 1e6}, ValueError, "fwhm 1000000.0 pads the stat2d box to more than 134,217,728 voxels"),
    ({"preset": "stat3d", "fwhm": 1e3}, ValueError,
     "fwhm 1000.0 pads the stat3d box to more than 134,217,728 voxels"),
])
def test_fwer_rejects_bad_arguments_before_any_work(monkeypatch, kwargs, error, message):
    from surfield import inference

    def untouched(*args, **kwargs):
        raise AssertionError("reached past the argument checks")

    monkeypatch.setattr(inference, "sample_ensemble", untouched)
    monkeypatch.setattr(inference, "_run_context", untouched)
    args = {"preset": "stat2d", "fwhm": 3.0, "n_subjects": 10, "n_reps": 2} | kwargs
    with pytest.raises(error, match=re.escape(message)):
        fwer_experiment(**args)


def test_fwer_numpy_integer_seed_matches_its_int():
    runs = [fwer_experiment("nonstat1d", 2.0, 10, 3, 0.1, rng=rng, keep_details=True)
            for rng in (7, np.int64(7), RngSpec(7), RngSpec(np.int64(7)))]
    for rep in runs[1:]:
        assert json.dumps(rep.to_dict(), sort_keys=True) == json.dumps(runs[0].to_dict(), sort_keys=True)
        assert rep.details.keys() == runs[0].details.keys()
        for key in rep.details:
            assert np.array_equal(rep.details[key], runs[0].details[key]), key


def test_maximizer_rejects_non_integral_starts_before_evaluating():
    ens = bump_ensemble(np.array([3.0, 4.0]))
    spec = SurfSpec(ens, GaussianKernel.isotropic(2.0, 2))
    for starts, error in ((2.5, TypeError), (True, TypeError), (0, ValueError)):
        with pytest.raises(error, match="starts must be"):
            maximize_t_field(spec, VoxelManifold(ens.domain), starts=starts, grid_values=np.zeros(3))
    assert maximize_t_field(spec, VoxelManifold(ens.domain), starts=np.int64(2))[1] > 0


def test_fwer_run_context_is_built_once_per_preset_and_fwhm(monkeypatch):
    # calls at FWHM 3, 1, 3 give what each gives alone (a fresh context), and
    # the repeated call builds no grid
    from surfield import inference, manifold

    def run(fwhm):
        rep = fwer_experiment("stat2d", fwhm, 10, 2, rng=RngSpec(7), keep_details=True)
        return rep.details

    alone = {}
    for fwhm in (3, 1.0):
        inference._run_context.cache_clear()
        alone[float(fwhm)] = run(fwhm)
    inference._run_context.cache_clear()
    builds = []
    init = manifold.RefinedGrid.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(manifold.RefinedGrid, "__init__", counted)
    for fwhm, built in ((3.0, 2), (1.0, 2), (3, 0)):
        before = len(builds)
        details = run(fwhm)
        assert len(builds) - before == built
        assert details.keys() == alone[float(fwhm)].keys()
        for key in details:
            assert np.array_equal(details[key], alone[float(fwhm)][key]), (fwhm, key)
    # an r_lkc > 1 grid is built by every call, never cached
    before = len(builds)
    fwer_experiment("stat2d", 3.0, 10, 1, r_lkc=3, rng=RngSpec(7))
    fwer_experiment("stat2d", 3.0, 10, 1, r_lkc=3, rng=RngSpec(7))
    assert len(builds) - before == 2


def _reference_details(fwhm: float, n_subjects: int, n_reps: int, r_lkc: int, seed: int) -> dict:
    """stat2d details at alpha 0.05 and 10 starts from the public steps, one
    replication at a time: lkc_compute, threshold, t_field_on_grid on the r = 1
    grid (its even keys are the lattice) and maximize_t_field from that grid."""
    dom = make_domain_preset("stat2d", fwhm)
    man, kern = VoxelManifold(dom.interior), GaussianKernel.isotropic(fwhm, 2)
    grid1, grid0 = refined_grid(man, 1), refined_grid(man, 0)
    grid_lkc = grid1 if r_lkc == 1 else refined_grid(man, r_lkc)
    lattice = np.all(grid1.keys % 2 == 0, axis=1)
    assert np.array_equal(grid1.keys[lattice] // 2, grid0.keys)
    rows = []
    for b in range(n_reps):
        ens = sample_ensemble(dom, n_subjects, RngSpec(seed).substream(b))
        spec = SurfSpec(ens, kern)
        u = threshold(lkc_compute(ens, kern, man, r_lkc, grid=grid_lkc), FieldType.student_t(n_subjects - 1), 0.05)
        t = t_field_on_grid(spec, grid1)
        sup_inf = maximize_t_field(spec, man, 10, grid=grid1, grid_values=t)[1]
        rows.append((u, t[lattice].max(), t.max(), sup_inf, count_local_maxima_above(grid0, t[lattice], u),
                     count_local_maxima_above(grid1, t, u)))
    return dict(zip(("u_hat", "sup0", "sup1", "sup_inf", "n_max0", "n_max1"), map(np.array, zip(*rows))))


@pytest.mark.parametrize("fwhm, n_subjects, r_lkc, shared", [
    (3.0, 50, 1, True),  # the benchmark's replications: the LKC grid is the scan grid and one slab
    (1.0, 50, 1, True),
    (3.0, 120, 1, False),  # two slabs
    (3.0, 20, 3, False),  # the LKC grid is not the scan grid
])
def test_replication_details_match_the_public_steps(monkeypatch, fwhm, n_subjects, r_lkc, shared):
    # where the LKC's one slab holds the t grid's values, the t grid is read
    # from an uncentred copy of them; elsewhere it is contracted on its own,
    # and every detail has the bits of the public steps either way
    from surfield import inference, lkc

    grid1 = refined_grid(VoxelManifold(make_domain_preset("stat2d", fwhm).interior), 1)
    assert (len(lkc._slabs(grid1, n_subjects)) == 2) == (n_subjects < 120)
    contracted = []

    def spy(spec, grid, real=inference.t_field_on_grid):
        contracted.append(grid)
        return real(spec, grid)

    monkeypatch.setattr(inference, "t_field_on_grid", spy)
    n_reps = 3
    details = fwer_experiment("stat2d", fwhm, n_subjects, n_reps, r_lkc=r_lkc, rng=RngSpec(29),
                              keep_details=True).details
    assert len(contracted) == (0 if shared else n_reps) and all(g.r == 1 for g in contracted)
    want = _reference_details(fwhm, n_subjects, n_reps, r_lkc, 29)
    assert details.keys() == want.keys()
    for key in want:
        assert details[key].dtype == want[key].dtype and np.array_equal(details[key], want[key]), key


# ---------------------------------------------------------------------------
# Localization and non-degeneracy
# ---------------------------------------------------------------------------


def test_localization_untruncated_is_everything():
    dom = VoxelSet(np.arange(0.0, 20.0)[:, None])
    k = GaussianKernel.isotropic(3.0, 1)
    sup = localization_support(k, dom, np.array([9.5]))
    assert len(sup) == 20


def test_localization_truncated_radius():
    dom = VoxelSet(np.array([[u, v] for u in range(10) for v in range(10)], dtype=float))
    k = GaussianKernel.isotropic(2.0, 2, truncation=2.0)
    x = np.array([4.2, 4.7])
    sup = localization_support(k, dom, x)
    dist = np.linalg.norm(dom.coords - x, axis=1)
    assert set(sup.tolist()) == set(np.nonzero(dist <= 2.0)[0].tolist())


def test_localization_implies_positive_mean_source():
    # if the smoothed mean is positive at x, some supported voxel has a
    # positive mean (nonnegative kernel)
    dom = VoxelSet(np.arange(0.0, 30.0)[:, None])
    k = GaussianKernel.isotropic(2.0, 1, truncation=4.0)
    mu = np.zeros(30)
    mu[12] = 1.0
    x = np.array([11.4])
    ens = FieldEnsemble(dom, mu[None])
    from surfield.surf import surf_eval

    smoothed = surf_eval(SurfSpec(ens, k), x[None], field=0)[0]
    assert smoothed > 0
    sup = localization_support(k, dom, x)
    assert np.any(mu[sup] > 0)


def test_nondegeneracy_pass_and_fail():
    k1 = GaussianKernel.isotropic(2.0, 1)
    dom = VoxelSet(np.arange(0.0, 9.0)[:, None])
    rep = nondegeneracy_check(k1, dom, np.array([4.2]))
    assert rep.passed and rep.rank == rep.required == 3
    # two voxels cannot span the three derivative directions
    dom2 = VoxelSet(np.array([[0.0], [1.0]]))
    rep2 = nondegeneracy_check(k1, dom2, np.array([0.5]))
    assert not rep2.passed and rep2.rank < 3
    k2 = GaussianKernel.isotropic(2.0, 2)
    dom3 = VoxelSet(np.array([[u, v] for u in range(3) for v in range(3)], dtype=float))
    rep3 = nondegeneracy_check(k2, dom3, np.array([1.1, 0.9]))
    assert rep3.passed and rep3.rank == rep3.required == 6
