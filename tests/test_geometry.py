import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surfield import geometry
from surfield.geometry import (
    metric,
    metric_on_grid,
    orthonormal_frame,
    sqrt_det_psd,
    sqrt_det_sub,
    theta_angle,
    theta_batch,
)
from surfield.kernel import GaussianKernel
from surfield.lattice import FieldEnsemble, RngSpec, VoxelSet, make_domain_preset, sample_ensemble
from surfield.manifold import EdgeType, VoxelManifold, refined_grid
from surfield.surf import DegenerateFieldError, SurfSpec, _white_noise_moments, smooth_on_grid, surf_eval

LOG2 = math.log(2.0)


def brute_force_wn_metric(kernel, domain, x):
    """Direct python summation of the independent-noise metric, skipping
    voxels beyond the kernel's truncation radius."""
    D = domain.dimension
    c = 4 * LOG2 / np.asarray(kernel.fwhm) ** 2
    rho = math.inf if kernel.truncation is None else kernel.truncation
    S = 0.0
    Sd = np.zeros(D)
    Sdd = np.zeros((D, D))
    for v in domain.coords:
        t = np.asarray(x, float) - v
        if float(t @ t) > rho**2:
            continue
        k = math.exp(-float(c @ (t * t)))
        g = -2 * c * t * k
        S += k * k
        Sd += k * g
        Sdd += np.outer(g, g)
    return Sdd / S - np.outer(Sd, Sd) / S**2


def random_spd(rng, scale=1.0):
    A = rng.normal(size=(3, 3))
    return scale * (A @ A.T + 0.5 * np.eye(3))


def test_white_noise_metric_matches_brute_force():
    dom = make_domain_preset("nonstat1d")
    pts = np.array([[33.7], [50.0], [99.2]])
    # rho = 3 drops voxels 3.2-4 away from the points, where K is 1e-2 to 1e-3 of its peak
    for k in (GaussianKernel.isotropic(2.5, 1), GaussianKernel.isotropic(2.5, 1, 3.0)):
        got = metric("white-noise", k, dom, pts)
        for i, x in enumerate(pts):
            np.testing.assert_allclose(got[i], brute_force_wn_metric(k, dom, x), rtol=1e-12)


def test_white_noise_metric_stationary_interior_value():
    # deep inside a long 1-D lattice the metric approaches 4 log 2 / f^2
    dom = VoxelSet(np.arange(0.0, 120.0)[:, None])
    f = 3.0
    lam = metric("white-noise", GaussianKernel.isotropic(f, 1), dom, np.array([60.3]))
    want = 4 * LOG2 / f**2
    assert abs(lam[0, 0] - want) / want < 0.005


def test_white_noise_metric_translation_invariance():
    k = GaussianKernel.isotropic(2.0, 1)
    dom = VoxelSet(np.arange(0.0, 30.0)[:, None])
    shifted = VoxelSet((np.arange(0.0, 30.0) + 11.25)[:, None])
    a = metric("white-noise", k, dom, np.array([7.3]))
    b = metric("white-noise", k, shifted, np.array([7.3 + 11.25]))
    np.testing.assert_allclose(a, b, rtol=1e-10)


def test_metric_symmetric_psd():
    dom = make_domain_preset("nonstat2d")
    k = GaussianKernel.isotropic(2.0, 2)
    rng = np.random.default_rng(2)
    pts = rng.uniform(1.0, 20.0, size=(40, 2))
    lam = metric("white-noise", k, dom, pts)
    assert np.allclose(lam, np.swapaxes(lam, 1, 2))
    ev = np.linalg.eigvalsh(lam)
    assert np.all(ev > -1e-12)


def test_ensemble_metric_converges_to_white_noise():
    dom = make_domain_preset("nonstat1d")
    k = GaussianKernel.isotropic(3.0, 1)
    x = np.array([[47.3]])
    want = metric("white-noise", k, dom, x[0])
    ens = sample_ensemble(dom, 20_000, RngSpec(4))
    got = metric(ens, k, None, x[0])
    # estimator sd is O(1/sqrt(N)); allow 5 relative percent at N = 20000
    assert abs(got[0, 0] - want[0, 0]) / want[0, 0] < 0.05


def test_ensemble_metric_matches_finite_difference_oracle():
    # the same ensemble, derivatives replaced by central differences of the
    # smoothed values: sample covariances must agree to 1e-3 relative
    dom = VoxelSet(np.array([[u, v] for u in range(8) for v in range(7)], dtype=float))
    k = GaussianKernel.isotropic(2.2, 2)
    ens = sample_ensemble(dom, 40, RngSpec(21))
    spec = SurfSpec(ens, k)
    rng = np.random.default_rng(22)
    pts = rng.uniform(0.5, 6.0, size=(5000, 2))
    lam = metric(ens, k, None, pts)
    eps = 1e-4
    vals = surf_eval(spec, pts, "value")
    grads_fd = np.empty((ens.n_fields, len(pts), 2))
    for d in range(2):
        e = np.zeros(2)
        e[d] = eps
        grads_fd[:, :, d] = (
            surf_eval(spec, pts + e, "value") - surf_eval(spec, pts - e, "value")
        ) / (2 * eps)
    cv = vals - vals.mean(axis=0)
    cg = grads_fd - grads_fd.mean(axis=0)
    n1 = ens.n_fields - 1
    S = np.einsum("np,np->p", cv, cv) / n1
    Sd = np.einsum("np,npd->pd", cv, cg) / n1
    Sdd = np.einsum("npd,npe->pde", cg, cg) / n1
    lam_fd = Sdd / S[:, None, None] - Sd[:, :, None] * Sd[:, None, :] / (S**2)[:, None, None]
    denom = np.maximum(np.abs(lam_fd), 1e-6)
    assert np.max(np.abs(lam - lam_fd) / denom) < 1e-3


def test_frame_identity_metric():
    U, V, N = orthonormal_frame(np.eye(3), (0, 1))
    np.testing.assert_allclose(U, [1, 0, 0])
    np.testing.assert_allclose(V, [0, -1, 0])
    np.testing.assert_allclose(N, [0, 0, 1])


def test_frame_diagonal_metric():
    U, V, N = orthonormal_frame(np.diag([4.0, 1.0, 1.0]), (0, 1))
    np.testing.assert_allclose(U, [0.5, 0, 0])
    np.testing.assert_allclose(V, [0, -1, 0])
    np.testing.assert_allclose(N, [0, 0, 1])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(0, 1), (0, 2), (1, 2)]))
def test_frame_orthonormality_random_spd(seed, I):
    lam = random_spd(np.random.default_rng(seed))
    U, V, N = orthonormal_frame(lam, I)
    for a in (U, V, N):
        assert abs(a @ lam @ a - 1.0) < 1e-12 * np.linalg.cond(lam)
    for a, b in ((U, V), (U, N), (V, N)):
        assert abs(a @ lam @ b) < 1e-10
    # U, V span the plane of the axes in I; N is metric-normal to it
    m = ({0, 1, 2} - set(I)).pop()
    assert U[m] == 0 and V[m] == 0


def test_theta_identity_values():
    for typ, want in (
        (EdgeType.CONVEX, math.pi / 2),
        (EdgeType.DOUBLE_CONVEX, -math.pi),
        (EdgeType.CONCAVE, -math.pi / 2),
    ):
        got = theta_angle(np.eye(3), 0, typ)
        assert got == pytest.approx(want, rel=1e-12)


def wedge_angle_oracle(lam):
    """Opening angle of the canonical solid wedge {y2<=0, y3<=0} at an edge
    along axis 1, measured in the metric: the angle between the two
    boundary rays inside the plane metric-orthogonal to the tangent."""
    lam = np.asarray(lam, float)
    # rays of the wedge boundary inside the normal plane F = {w : (lam w)_1 = 0}
    # ray in face {y3 = 0, y2 <= 0}: solve (lam w)_1 = 0 with w = (w1, -1, 0)
    w1 = lam[0, 1] / lam[0, 0]
    a = np.array([w1, -1.0, 0.0])
    w1 = lam[0, 2] / lam[0, 0]
    b = np.array([w1, 0.0, -1.0])
    cosb = (a @ lam @ b) / math.sqrt((a @ lam @ a) * (b @ lam @ b))
    return math.acos(max(-1.0, min(1.0, cosb)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 1, 2]),
    st.sampled_from([(1, 1), (-1, 1), (1, -1), (-1, -1)]),
)
def test_theta_matches_direct_wedge_angle(seed, k, refl):
    # the oracle's frame: tangent axis first, then the transverse axes in
    # ascending order, each reflected to the canonical orientation
    lam = random_spd(np.random.default_rng(seed))
    axes = [k] + [d for d in range(3) if d != k]
    signs = np.array([1.0, *refl])
    beta = wedge_angle_oracle(lam[np.ix_(axes, axes)] * np.outer(signs, signs))
    got = theta_angle(lam, k, EdgeType.CONVEX, refl)
    assert got == pytest.approx(math.pi - beta, rel=1e-9, abs=1e-9)
    assert theta_angle(lam, k, EdgeType.DOUBLE_CONVEX, refl) == pytest.approx(-2 * beta, rel=1e-9)
    assert theta_angle(lam, k, EdgeType.CONCAVE, refl) == pytest.approx(
        beta - math.pi, rel=1e-9, abs=1e-9
    )


def test_theta_reflection_consistency():
    # reflecting a transverse axis flips the sign of the mixed metric terms;
    # an edge whose solid quadrant is reflected along one transverse axis
    # must give the same angle as the canonical computation on the
    # reflected metric, for every tangent axis and either transverse axis
    rng = np.random.default_rng(99)
    lam = random_spd(rng)
    for k in range(3):
        for a, axis in enumerate(d for d in range(3) if d != k):
            R = np.diag([-1.0 if d == axis else 1.0 for d in range(3)])
            refl = (-1, 1) if a == 0 else (1, -1)
            direct = theta_angle(R @ lam @ R, k, EdgeType.CONVEX)
            via_refl = theta_angle(lam, k, EdgeType.CONVEX, refl=refl)
            assert direct == pytest.approx(via_refl, rel=1e-12)
            assert direct != pytest.approx(theta_angle(lam, k, EdgeType.CONVEX), rel=1e-6)


def test_cube_consistency_edge_sum():
    # constant metric c^2 I on an a x b x c voxel box: (1/2pi) sum over the
    # 12 edges of theta times metric edge length equals c (a+b+c)
    c = 1.7
    sides = (3.0, 2.0, 4.0)
    lam = (c**2) * np.eye(3)
    total = 0.0
    for k, s in enumerate(sides):
        # 4 parallel edges of euclidean length s, all convex
        theta = theta_angle(lam, k, EdgeType.CONVEX)
        total += 4 * theta * (c * s)
    assert total / (2 * math.pi) == pytest.approx(c * sum(sides), rel=1e-12)


def test_singular_metric_rejected():
    with pytest.raises(np.linalg.LinAlgError):
        orthonormal_frame(np.zeros((3, 3)), (0, 1))
    # a face plane of the edge on which the metric is degenerate
    for k, lam in ((0, np.diag([1.0, 1.0, 0.0])), (2, np.diag([1.0, 0.0, 1.0])), (1, np.zeros((3, 3)))):
        with pytest.raises(np.linalg.LinAlgError):
            theta_angle(lam, k, EdgeType.CONVEX)


def test_sqrt_det_psd_repair():
    mats = np.stack([np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 1.0, -1e-15])])
    vals, n_bad = sqrt_det_psd(mats)
    assert vals[0] == pytest.approx(math.sqrt(6.0))
    assert n_bad == 1
    assert vals[1] >= 0.0


@pytest.mark.parametrize("D", [2, 3])
def test_determinants_and_angles_independent_of_metric_layout(D):
    # _metric_expr fills the upper triangle of a components-first view; the
    # readers must give the same bits on it as on a C-contiguous symmetric copy
    # and on one whose lower triangle is NaN, repair path included
    rng = np.random.default_rng(70 + D)
    Q = 200
    S = rng.uniform(0.5, 2.0, Q)
    Sd = rng.normal(size=(Q, D))
    A = rng.normal(size=(Q, D, D))
    Sdd = A @ np.swapaxes(A, -1, -2) + 0.1 * np.eye(D) + Sd[:, :, None] * Sd[:, None, :] / S[:, None, None]
    # indefinite rows (lam = Sdd there); in 3-D every 2x2 principal minor
    # stays positive, so theta_batch accepts the whole batch
    indefinite = np.full((D, D), -0.9) + 1.9 * np.eye(D) if D == 3 else np.array([[1.0, 2.0], [2.0, 1.0]])
    S[::40], Sd[::40], Sdd[::40] = 1.0, 0.0, indefinite
    lam = geometry._metric_expr(S, Sd, Sdd)
    dense = geometry._symmetric(np.ascontiguousarray(lam))
    poisoned, lower = dense.copy(), np.tril_indices(D, -1)
    poisoned[:, lower[0], lower[1]] = np.nan
    assert lam[..., 0, 1].flags.c_contiguous and not lam.flags.c_contiguous
    vals, n_bad = sqrt_det_psd(lam)
    assert n_bad >= Q // 40
    for other in (dense, poisoned):
        want = sqrt_det_psd(other)
        assert np.array_equal(vals, want[0]) and n_bad == want[1]
        for n in range(1, D):
            for axes in itertools.combinations(range(D), n):
                got, want = sqrt_det_sub(lam, axes), sqrt_det_sub(other, axes)
                assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    if D == 3:
        types = rng.integers(3, size=Q)
        refl = rng.choice([-1, 1], size=(Q, 2))
        for k in range(3):
            want = theta_batch(dense, k, types, refl)
            assert np.array_equal(theta_batch(lam, k, types, refl), want)
            assert np.array_equal(theta_batch(poisoned, k, types, refl), want)
    grid = refined_grid(VoxelManifold(make_domain_preset("nonstat2d" if D == 2 else "nonstat3d")), 1)
    lam = metric_on_grid("white-noise", GaussianKernel.isotropic(2.0, D), grid)
    assert lam.shape == (grid.n_points, D, D)
    assert np.array_equal(lam, np.swapaxes(lam, -1, -2))


def test_metric_on_grid_tensor_matches_point_path():
    dom = make_domain_preset("nonstat2d")
    man = VoxelManifold(dom)
    grid = refined_grid(man, 1)
    k = GaussianKernel.isotropic(2.0, 2)
    lam = metric_on_grid("white-noise", k, grid)
    direct = metric("white-noise", k, dom, grid.points[::37])
    np.testing.assert_allclose(lam[::37], direct, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("ensemble", [False, True])
def test_metric_on_grid_point_ids_match_full_grid_rows(monkeypatch, ensemble):
    from surfield import lkc

    dom = make_domain_preset("nonstat3d")
    grid = refined_grid(VoxelManifold(dom), 1)
    k = GaussianKernel.isotropic(2.0, 3)
    source = sample_ensemble(dom, 5, RngSpec(8)) if ensemble else "white-noise"
    full = metric_on_grid(source, k, grid)
    every = metric_on_grid(source, k, grid, point_ids=np.arange(grid.n_points))
    assert np.array_equal(every, full)
    # Slabs of one to a few axis-0 rows: BLAS picks other kernels for such
    # small products (gemv for one row), so agreement is to rounding.
    monkeypatch.setattr(lkc, "_SLAB_POINTS", 3000)
    bounds = lkc._slabs(grid, 1)
    assert len(bounds) > 15
    for a, b in zip(bounds[:-1], bounds[1:]):
        slab = np.arange(a, b)
        np.testing.assert_allclose(metric_on_grid(source, k, grid, point_ids=slab), full[slab],
                                   rtol=0, atol=1e-14 * np.abs(full).max())


def centred_sample_bundle(val, grad):
    """(S, Sd, Sdd) as centred sample inner products with the N-1
    denominator, from (N, P) and (N, P, D) arrays."""
    cv, cg = (a - a.mean(axis=0) for a in (val, grad))
    n1 = val.shape[0] - 1
    return (
        np.einsum("np,np->p", cv, cv) / n1,
        np.einsum("np,npd->pd", cv, cg) / n1,
        np.einsum("npd,npe->pde", cg, cg) / n1,
    )


def assert_bundles_close(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-13 * np.abs(w).max())


@pytest.mark.parametrize("name,D", [("nonstat2d", 2), ("nonstat3d", 3)])
def test_ensemble_bundle_matches_centred_sample_inner_products(name, D):
    dom = make_domain_preset(name)
    grid = refined_grid(VoxelManifold(dom), 1)
    ens = sample_ensemble(dom, 7, RngSpec(30 + D))
    k = GaussianKernel.isotropic(2.0, D)
    arr = smooth_on_grid(ens, k, grid, derivatives=1)
    want = centred_sample_bundle(arr["value"], arr["grad"])
    ids = np.arange(3, grid.n_points, 11)
    assert_bundles_close(geometry._moments(ens, k, None, grid=grid), want)
    assert_bundles_close(geometry._moments(ens, k, None, grid=grid, ids=ids), [w[ids] for w in want])
    spec = SurfSpec(ens, k)
    pts = grid.points[ids] + 0.3
    want = centred_sample_bundle(*(surf_eval(spec, pts, o) for o in ("value", "gradient")))
    assert_bundles_close(geometry._moments(ens, k, None, points=pts), want)


def test_subject_constant_ensemble_has_zero_sample_variance():
    dom = make_domain_preset("nonstat3d")
    grid = refined_grid(VoxelManifold(dom), 1)
    x = np.random.default_rng(5).standard_normal(dom.n_voxels)
    ens = FieldEnsemble(dom, np.tile(x, (6, 1)))
    k = GaussianKernel.isotropic(2.0, 3)
    ids = np.arange(0, grid.n_points, 7)
    for run in (
        lambda: metric_on_grid(ens, k, grid),
        lambda: metric(ens, k, None, grid.points[ids]),
        lambda: metric_on_grid(ens, GaussianKernel.isotropic(2.0, 3, 5.0), grid, point_ids=ids),
    ):
        with pytest.raises(DegenerateFieldError, match="zero sample variance at an evaluation point"):
            run()


def test_single_field_ensemble_fails_before_smoothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("smoothed a one-field ensemble")

    monkeypatch.setattr(geometry, "_sums", forbidden)
    dom = make_domain_preset("nonstat2d")
    grid = refined_grid(VoxelManifold(dom), 1)
    ens = sample_ensemble(dom, 1, RngSpec(2))
    k = GaussianKernel.isotropic(2.0, 2)
    for run in (
        lambda: metric_on_grid(ens, k, grid),
        lambda: metric(ens, k, None, grid.points[:5]),
    ):
        with pytest.raises(DegenerateFieldError, match="at least two fields"):
            run()


@pytest.mark.parametrize("truncation", [None, 3.0])
@pytest.mark.parametrize("D", [1, 2, 3])
def test_white_noise_point_bundle_matches_direct_sums(D, truncation):
    # S, Sd, Sdd and U2 at points near a masked domain, against sums of
    # np.exp kernel derivatives over every (point, voxel) pair
    if D == 1:
        dom = VoxelSet(np.r_[0:6, 9:15].astype(float)[:, None])
    else:
        dom = make_domain_preset("nonstat2d" if D == 2 else "nonstat3d")
    pts = np.random.default_rng(60 + D).uniform(0.5, 4.5, size=(6, D))
    k = GaussianKernel((2.0, 2.6, 3.1)[:D], truncation)
    c = 4 * LOG2 / np.asarray(k.fwhm) ** 2
    t = pts[:, None, :] - dom.coords[None, :, :]
    K = np.exp(-(t * t) @ c)
    if truncation is not None:
        K[np.sum(t * t, axis=-1) > truncation**2] = 0.0
    G = -2 * c * t * K[..., None]
    H = (4 * c[:, None] * c * t[..., :, None] * t[..., None, :] - 2 * np.diag(c)) * K[..., None, None]
    want = (
        np.einsum("pm,pm->p", K, K),
        np.einsum("pm,pmd->pd", K, G),
        np.einsum("pmd,pme->pde", G, G),
        np.einsum("pmkd,pm->pkd", H, K),
    )
    got = _white_noise_moments(k, dom, True, points=pts)  # the bundle normalized Hessians read
    assert len(got) == len(want)
    for g, w in zip([*got, *geometry._moments("white-noise", k, dom, points=pts)], [*want, *want[:3]]):
        np.testing.assert_allclose(g, w, rtol=1e-11, atol=1e-12 * np.abs(w).max())
    np.testing.assert_allclose(metric("white-noise", k, dom, pts), geometry._symmetric(geometry._metric_expr(*want[:3])),
                               rtol=1e-9, atol=1e-11)
