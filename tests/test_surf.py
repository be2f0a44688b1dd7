import math

import numpy as np
import pytest

from surfield.kernel import GaussianKernel
from surfield.lattice import FieldEnsemble, RngSpec, VoxelSet, make_domain_preset, sample_ensemble
from surfield.manifold import VoxelManifold, refined_grid
from surfield.surf import (
    DegenerateFieldError,
    SurfSpec,
    smooth_on_grid,
    surf_covariance,
    surf_eval,
    t_field,
)

LOG2 = math.log(2.0)


def brute_force_surf(kernel, domain, values, x, order):
    """Independent re-summation: explicit python loops over all voxels."""
    D = domain.dimension
    c = 4 * LOG2 / np.asarray(kernel.fwhm) ** 2
    if order == "value":
        out = 0.0
    elif order == "gradient":
        out = np.zeros(D)
    else:
        out = np.zeros((D, D))
    for v, w in zip(domain.coords, values):
        t = np.asarray(x, dtype=float) - v
        k = math.exp(-float(c @ (t * t)))
        if order == "value":
            out += w * k
        elif order == "gradient":
            out += w * (-2 * c * t) * k
        else:
            lin = -2 * c * t
            h = np.outer(lin, lin) + np.diag(-2 * c)
            out += w * h * k
    return out


@pytest.fixture(scope="module")
def small_ensemble():
    dom = VoxelSet(np.array([[u, v] for u in range(5) for v in range(4)], dtype=float))
    return sample_ensemble(dom, 6, RngSpec(31))


def test_indicator_field_value():
    dom = VoxelSet(np.array([[0.0], [1.0], [2.0]]))
    values = np.array([0.0, 1.0, 0.0])
    spec = SurfSpec(FieldEnsemble(dom, values[None]), GaussianKernel.isotropic(2.0, 1))
    assert surf_eval(spec, [[1.0]], field=0)[0] == pytest.approx(1.0, rel=1e-14)


def test_two_voxel_hand_value():
    dom = VoxelSet(np.array([[0.0], [1.0]]))
    spec = SurfSpec(FieldEnsemble(dom, np.array([[1.0, 1.0]])), GaussianKernel.isotropic(2.0, 1))
    got = surf_eval(spec, [[0.5]], field=0)[0]
    assert got == pytest.approx(2 * math.exp(-4 * LOG2 * 0.25 / 4), rel=1e-12)
    assert got == pytest.approx(1.681793, abs=5e-7)


def test_linearity(small_ensemble):
    dom = small_ensemble.domain
    k = GaussianKernel.isotropic(2.0, 2)
    X, Y = small_ensemble.values[0], small_ensemble.values[1]
    a, b = 2.5, -1.25
    combo = FieldEnsemble(dom, (a * X + b * Y)[None])
    pts = np.array([[1.3, 2.7], [0.0, 0.0]])
    lhs = surf_eval(SurfSpec(combo, k), pts, field=0)
    sx = surf_eval(SurfSpec(FieldEnsemble(dom, X[None]), k), pts, field=0)
    sy = surf_eval(SurfSpec(FieldEnsemble(dom, Y[None]), k), pts, field=0)
    assert np.allclose(lhs, a * sx + b * sy, rtol=1e-12)


@pytest.mark.parametrize("order", ["value", "gradient", "hessian"])
def test_matches_brute_force_resummation(small_ensemble, order):
    k = GaussianKernel((1.5, 2.5))
    spec = SurfSpec(small_ensemble, k)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 5, size=(20, 2))
    got = surf_eval(spec, pts, order)
    for i in (0, 3):
        for p in range(len(pts)):
            want = brute_force_surf(k, small_ensemble.domain, small_ensemble.values[i], pts[p], order)
            np.testing.assert_allclose(got[i, p], want, rtol=1e-12, atol=1e-14)


def test_normalized_unit_variance(small_ensemble):
    # the pointwise variance of the normalized field is 1 by construction:
    # sigma(x)^-2 * sum_v K(x,v)^2 with identity lattice covariance
    dom = small_ensemble.domain
    k = GaussianKernel.isotropic(1.8, 2)
    rng = np.random.default_rng(8)
    for x in rng.uniform(0, 4, size=(10, 2)):
        var = surf_covariance(k, dom, x, x)
        kx = k.pairwise_value(x[None], dom.coords)[0]
        norm_var = (kx / math.sqrt(var)) @ (kx / math.sqrt(var))
        assert norm_var == pytest.approx(1.0, rel=1e-12)


def test_normalized_eval_and_derivatives_fd(small_ensemble):
    k = GaussianKernel.isotropic(2.0, 2)
    spec = SurfSpec(small_ensemble, k, normalized=True)
    pts = np.array([[1.7, 1.2]])
    eps = 1e-6
    grad = surf_eval(spec, pts, "gradient")[:, 0]
    hess = surf_eval(spec, pts, "hessian")[:, 0]
    for d in range(2):
        e = np.zeros(2)
        e[d] = eps
        plus = surf_eval(spec, pts + e, "value")[:, 0]
        minus = surf_eval(spec, pts - e, "value")[:, 0]
        np.testing.assert_allclose(grad[:, d], (plus - minus) / (2 * eps), rtol=1e-6)
        gplus = surf_eval(spec, pts + e, "gradient")[:, 0]
        gminus = surf_eval(spec, pts - e, "gradient")[:, 0]
        np.testing.assert_allclose(hess[:, d, :], (gplus - gminus) / (2 * eps), rtol=2e-5)


def test_covariance_symmetry_and_single_sum(small_ensemble):
    dom = small_ensemble.domain
    k = GaussianKernel.isotropic(2.0, 2)
    x, y = np.array([1.1, 0.3]), np.array([3.9, 2.2])
    cxy = surf_covariance(k, dom, x, y)
    cyx = surf_covariance(k, dom, y, x)
    assert cxy == pytest.approx(cyx, rel=1e-13)
    # identity covariance collapses the double sum to a single sum
    kx = k.pairwise_value(x[None], dom.coords)[0]
    ky = k.pairwise_value(y[None], dom.coords)[0]
    assert cxy == pytest.approx(float(kx @ ky), rel=1e-13)
    assert surf_covariance(k, dom, x, x) > 0


def test_sample_variance_matches_covariance():
    dom = make_domain_preset("nonstat1d")
    k = GaussianKernel.isotropic(3.0, 1)
    n = 4000
    ens = sample_ensemble(dom, n, RngSpec(17))
    spec = SurfSpec(ens, k)
    x = np.array([[50.3]])
    vals = surf_eval(spec, x, "value")[:, 0]
    want = surf_covariance(k, dom, x[0], x[0])
    # sample variance of n iid gaussians: sd of the variance ~ var * sqrt(2/(n-1))
    se = want * math.sqrt(2.0 / (n - 1))
    assert abs(vals.var(ddof=1) - want) < 3 * se


def test_t_field_hand_value():
    dom = VoxelSet(np.array([[0.0], [1.0]]))
    k = GaussianKernel.isotropic(2.0, 1)
    # three fields engineered to give smoothed values (1, 2, 3) at x = 0
    kx = k.pairwise_value(np.array([[0.0]]), dom.coords)[0]
    fields = np.array([[c / kx.sum(), c / kx.sum()] for c in (1.0, 2.0, 3.0)])
    spec = SurfSpec(FieldEnsemble(dom, fields), k)
    t = t_field(spec, [[0.0]])
    assert t[0] == pytest.approx(math.sqrt(3) * 2.0 / 1.0, rel=1e-12)
    assert t[0] == pytest.approx(3.464102, abs=5e-7)


def test_t_field_scale_invariance(small_ensemble):
    k = GaussianKernel.isotropic(2.0, 2)
    pts = np.array([[1.5, 1.5], [3.2, 0.4]])
    base = t_field(SurfSpec(small_ensemble, k), pts)
    scaled = FieldEnsemble(small_ensemble.domain, 7.5 * small_ensemble.values)
    assert np.allclose(t_field(SurfSpec(scaled, k), pts), base, rtol=1e-12)


def test_t_field_mean_shift(small_ensemble):
    # adding a constant c to every field shifts the smoothed mean by
    # c * sum_v K(x, v) and leaves the sample sd untouched
    dom = small_ensemble.domain
    k = GaussianKernel.isotropic(2.0, 2)
    x = np.array([[2.0, 1.5]])
    c = 3.0
    shifted = FieldEnsemble(dom, small_ensemble.values + c)
    v0 = surf_eval(SurfSpec(small_ensemble, k), x, "value")
    v1 = surf_eval(SurfSpec(shifted, k), x, "value")
    ksum = k.pairwise_value(x, dom.coords)[0].sum()
    np.testing.assert_allclose(v1 - v0, c * ksum, rtol=1e-12)
    np.testing.assert_allclose(v0.std(ddof=1), v1.std(ddof=1), rtol=1e-12)


def test_t_field_gradient_fd(small_ensemble):
    k = GaussianKernel.isotropic(2.0, 2)
    spec = SurfSpec(small_ensemble, k)
    rng = np.random.default_rng(13)
    pts = rng.uniform(0.5, 3.5, size=(10, 2))
    grad = t_field(spec, pts, "gradient")
    eps = 1e-6
    for d in range(2):
        e = np.zeros(2)
        e[d] = eps
        fd = (t_field(spec, pts + e) - t_field(spec, pts - e)) / (2 * eps)
        np.testing.assert_allclose(grad[:, d], fd, rtol=1e-5)


@pytest.mark.parametrize("D", [1, 2, 3])
def test_t_field_hessian_fd(D):
    import itertools

    from surfield.surf import _eval_arrays, _t_from_arrays

    n = {1: 12, 2: 6, 3: 4}[D]
    dom = VoxelSet(np.array(list(itertools.product(range(n), repeat=D)), dtype=float))
    spec = SurfSpec(sample_ensemble(dom, 7, RngSpec(3)), GaussianKernel.isotropic(2.0, D))
    pts = np.random.default_rng(1).uniform(0.5, n - 1.5, size=(6, D))
    t, grad, hess = _t_from_arrays(*_eval_arrays(spec, pts, "hessian"))
    np.testing.assert_array_equal(t, t_field(spec, pts))
    np.testing.assert_allclose(hess, hess.transpose(0, 2, 1), rtol=0, atol=1e-14 * np.abs(hess).max())
    eps = 1e-5
    fd = np.stack([
        (t_field(spec, pts + eps * e, "gradient") - t_field(spec, pts - eps * e, "gradient")) / (2 * eps)
        for e in np.eye(D)
    ], axis=2)
    np.testing.assert_allclose(hess, fd, rtol=1e-6, atol=1e-6 * np.abs(hess).max())


@pytest.mark.parametrize("fwhm", [3.0, 1.0])
def test_sweep_evaluation_of_a_point_does_not_depend_on_its_batch(fwhm):
    # the ascent's sweeps evaluate the running pairs' points together; each
    # point's t, gradient and Hessian must have the bits it has alone, so that
    # adding or retiring pairs moves no other pair
    from surfield.surf import _eval_arrays, _t_from_arrays, _t_hessian_at

    dom = make_domain_preset("stat2d", fwhm)
    ens, k = sample_ensemble(dom, 50, RngSpec(31)), GaussianKernel.isotropic(fwhm, 2)
    pts = np.random.default_rng(4).uniform(1.0, 20.0, size=(40, 2))
    whole = _t_hessian_at(k, ens, pts)
    for sizes in ([1] * 40, [3, 7, 1, 13, 16], [39, 1], [2] * 20):
        parts = [_t_hessian_at(k, ens, p) for p in np.split(pts, np.cumsum(sizes)[:-1])]
        for got, want in zip(map(np.concatenate, zip(*parts)), whole):
            assert np.array_equal(got, want), sizes
    # to rounding, the separate derivative arrays give the same
    for got, want in zip(whole, _t_from_arrays(*_eval_arrays(SurfSpec(ens, k), pts, "hessian"))):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_t_field_requires_two_and_nonzero_variance():
    dom = VoxelSet(np.array([[0.0], [1.0]]))
    k = GaussianKernel.isotropic(2.0, 1)
    with pytest.raises(DegenerateFieldError):
        t_field(SurfSpec(FieldEnsemble(dom, np.ones((1, 2))), k), [[0.5]])
    with pytest.raises(DegenerateFieldError):
        t_field(SurfSpec(FieldEnsemble(dom, np.ones((3, 2))), k), [[0.5]])


def test_tensor_grid_engine_matches_generic(small_ensemble):
    man = VoxelManifold(small_ensemble.domain)
    grid = refined_grid(man, 3)
    # a truncated kernel is not separable: on a grid it takes the point engine
    for k in (GaussianKernel((1.5, 2.5)), GaussianKernel((1.5, 2.5), 2.5)):
        arr = smooth_on_grid(small_ensemble, k, grid, derivatives=2)
        spec = SurfSpec(small_ensemble, k)
        np.testing.assert_allclose(arr["value"], surf_eval(spec, grid.points, "value"), rtol=1e-12)
        np.testing.assert_allclose(arr["grad"], surf_eval(spec, grid.points, "gradient"), rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(arr["hess"], surf_eval(spec, grid.points, "hessian"), rtol=1e-12, atol=1e-12)


def test_dimension_mismatch_rejected(small_ensemble):
    with pytest.raises(ValueError):
        SurfSpec(small_ensemble, GaussianKernel.isotropic(2.0, 3))


def test_normalized_degenerate_point_rejected():
    # with a truncated kernel the variance vanishes far from the data
    dom = VoxelSet(np.array([[0.0], [1.0]]))
    k = GaussianKernel.isotropic(1.0, 1, truncation=2.0)
    spec = SurfSpec(FieldEnsemble(dom, np.ones((1, 2))), k, normalized=True)
    with pytest.raises(DegenerateFieldError):
        surf_eval(spec, [[50.0]], "value")


# ---------------------------------------------------------------------------
# Point engine against direct sums
# ---------------------------------------------------------------------------


def direct_sums(kernel, domain, values, x):
    """The smoothed fields (val, grad, hess) and sigma^2 = sum_v K(x, v)^2 with
    its gradient and Hessian, summed directly over every (point, voxel) pair:
    np.exp of the full offsets, zero beyond the truncation radius."""
    c = 4 * LOG2 / np.asarray(kernel.fwhm) ** 2
    t = x[:, None, :] - domain.coords[None, :, :]
    k = np.exp(-(t * t) @ c)
    if kernel.truncation is not None:
        k[np.sum(t * t, axis=-1) > kernel.truncation**2] = 0.0
    g = -2 * c * t * k[..., None]
    h = (4 * c[:, None] * c * t[..., :, None] * t[..., None, :] - 2 * np.diag(c)) * k[..., None, None]
    fields = (values @ k.T, np.einsum("nm,pmd->npd", values, g), np.einsum("nm,pmde->npde", values, h))
    s2 = (np.sum(k * k, axis=1), 2 * np.einsum("pm,pmd->pd", k, g),
          2 * (np.einsum("pmd,pme->pde", g, g) + np.einsum("pm,pmde->pde", k, h)))
    return fields, s2


def direct_normalized(fields, s2):
    """f s^(-1/2) with its gradient and Hessian, for s = sigma^2."""
    f, df, ddf = fields
    s, ds, dds = s2
    r1, r3, r5 = s**-0.5, s**-1.5, s**-2.5
    grad = df * r1[:, None] - 0.5 * f[..., None] * r3[:, None] * ds
    hess = (
        ddf * r1[:, None, None]
        - 0.5 * (df[..., :, None] * ds[:, None, :] + ds[:, :, None] * df[..., None, :]) * r3[:, None, None]
        - 0.5 * f[..., None, None] * r3[:, None, None] * dds
        + 0.75 * f[..., None, None] * r5[:, None, None] * ds[:, :, None] * ds[:, None, :]
    )
    return f * r1, grad, hess


def point_engine_case(D):
    """A masked domain of dimension D and points within 4 voxels of it."""
    if D == 1:
        dom = VoxelSet(np.r_[0:6, 9:15].astype(float)[:, None])
    else:
        dom = make_domain_preset("nonstat2d" if D == 2 else "nonstat3d")
    rng = np.random.default_rng(40 + D)
    pts = rng.uniform(0.5, 4.5, size=(7, D))
    flip = rng.random(pts.shape) < 0.4
    pts[flip] = (15.0 if D == 1 else 21.0) - pts[flip]
    return dom, pts


@pytest.mark.parametrize("truncation", [None, 3.0])
@pytest.mark.parametrize("D", [1, 2, 3])
def test_point_engine_matches_direct_sums(D, truncation):
    dom, pts = point_engine_case(D)
    ens = sample_ensemble(dom, 4, RngSpec(7 + D))
    k = GaussianKernel((2.0, 2.6, 3.1)[:D], truncation)
    fields, s2 = direct_sums(k, dom, ens.values, pts)
    for normalized, want in ((False, fields), (True, direct_normalized(fields, s2))):
        spec = SurfSpec(ens, k, normalized)
        for order, w in zip(("value", "gradient", "hessian"), want):
            tol = dict(rtol=1e-11, atol=1e-12 * np.abs(w).max())
            np.testing.assert_allclose(surf_eval(spec, pts, order), w, **tol)
            np.testing.assert_allclose(surf_eval(spec, pts, order, field=2), w[2], **tol)


@pytest.mark.parametrize("D", [1, 2, 3])
def test_truncated_point_engine_matches_untruncated_at_large_radius(D):
    from surfield import geometry

    dom, pts = point_engine_case(D)
    ens = sample_ensemble(dom, 5, RngSpec(11 + D))
    fwhm = (2.0, 2.6, 3.1)[:D]
    wide, plain = GaussianKernel(fwhm, 1e3), GaussianKernel(fwhm)
    for normalized in (False, True):
        for order in ("value", "gradient", "hessian"):
            want = surf_eval(SurfSpec(ens, plain, normalized), pts, order)
            got = surf_eval(SurfSpec(ens, wide, normalized), pts, order)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * np.abs(want).max())
    for source in ("white-noise", ens):
        want = geometry._moments(source, plain, dom, True, points=pts)
        for g, w in zip(geometry._moments(source, wide, dom, True, points=pts), want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-13 * np.abs(w).max())


def test_truncated_point_engine_builds_only_the_orders_its_sums_read(monkeypatch):
    # a truncated kernel's factors span every point x voxel pair, so a
    # value-only sum must not pay for derivative orders it never reads
    dom, pts = point_engine_case(2)
    ens = sample_ensemble(dom, 4, RngSpec(5))
    k = GaussianKernel((2.0, 2.6), 3.0)
    asked = []
    factors = GaussianKernel.axis_factors

    def spy(self, d, t, order):
        asked.append(order)
        return factors(self, d, t, order)

    monkeypatch.setattr(GaussianKernel, "axis_factors", spy)
    for order, highest in (("value", 0), ("gradient", 1)):
        asked.clear()
        t_field(SurfSpec(ens, k), pts, order)
        assert asked and max(asked) == highest


def test_untruncated_point_paths_never_build_the_pairwise_design(monkeypatch):
    from surfield.geometry import christoffel, metric
    from surfield.inference import maximize_t_field

    def forbidden(*args, **kwargs):
        raise AssertionError("built the dense point x voxel kernel design")

    monkeypatch.setattr(GaussianKernel, "_pairwise", forbidden)
    dom, pts = point_engine_case(2)
    ens = sample_ensemble(dom, 6, RngSpec(19))
    k = GaussianKernel.isotropic(2.0, 2)
    for normalized in (False, True):
        for order in ("value", "gradient", "hessian"):
            surf_eval(SurfSpec(ens, k, normalized), pts, order)
    for order in ("value", "gradient"):
        t_field(SurfSpec(ens, k), pts, order)
    maximize_t_field(SurfSpec(ens, k), VoxelManifold(dom), starts=3)
    for source in ("white-noise", ens):
        metric(source, k, dom, pts)
        christoffel(source, k, dom, pts)


# ---------------------------------------------------------------------------
# Grid engine against direct sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_fields", [4, 1])
@pytest.mark.parametrize("D", [1, 2, 3])
def test_grid_engine_matches_direct_sums(D, n_fields):
    from surfield.surf import _derivative_arrays, _grid_sums

    dom, _ = point_engine_case(D)
    ens = sample_ensemble(dom, 4, RngSpec(23 + D))
    ens = FieldEnsemble(dom, ens.values[:n_fields])
    k = GaussianKernel((2.0, 2.6, 3.1)[:D])
    grid = refined_grid(VoxelManifold(dom), 3 if D < 3 else 1)
    full = smooth_on_grid(ens, k, grid, derivatives=2)
    rng = np.random.default_rng(D)
    # every point of the 1-D grid; elsewhere a sample (the direct Hessian is (P, M, D, D))
    check = np.arange(grid.n_points) if D == 1 else np.sort(rng.choice(grid.n_points, 300, replace=False))
    start = grid.n_points // 3
    slab = np.arange(start, start + min(300, grid.n_points // 2))
    part = _derivative_arrays(_grid_sums(k, ens, grid, ids=slab), D, 2)
    for ids, got in ((check, [full[key][:, check] for key in ("value", "grad", "hess")]), (slab, part)):
        want, _ = direct_sums(k, dom, ens.values, grid.points[ids])
        for g, w in zip(got, want):
            assert g.shape == w.shape
            np.testing.assert_allclose(g, w, rtol=1e-11, atol=1e-12 * np.abs(w).max())


def test_grid_sums_free_their_matrices_with_the_last_reference():
    # a reference cycle would hold every factor matrix of every LKC slab
    # until the garbage collector ran, raising the peak memory of a call;
    # the truncated point engine's shared leading-axis products likewise
    import gc

    from surfield.surf import _grid_sums, _point_sums

    dom, pts = point_engine_case(3)
    grid = refined_grid(VoxelManifold(dom), 1)
    engines = [  # (engine, the arguments of its second call)
        (lambda: _grid_sums(GaussianKernel.isotropic(2.0, 3), dom.unit_field, grid,
                            ids=range(0, grid.n_points // 2)), [(0, 1, 0), None]),
        (lambda: _point_sums(GaussianKernel.isotropic(2.0, 3, 6.0), dom.unit_field, pts, 1, True),
         [(0, 1, 0), (0, 0, 0)]),
    ]
    gc.collect()
    gc.disable()
    try:
        for engine, args in engines:
            s = engine()
            s((0, 0, 0), (1, 0, 0))
            s(*args)
            del s
            assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# No subnormal kernel operand reaches BLAS
# ---------------------------------------------------------------------------


def _subnormal_operands(monkeypatch):
    """Per call of ``_contract`` or ``_stack_contract`` while the test runs,
    (engine, count of kernel-operand entries with 0 < |x| < tiny)."""
    from surfield import surf as surf_module

    tiny = np.finfo(np.float64).tiny
    seen = []
    for name in ("_contract", "_stack_contract"):
        def spy(data, mats, *rest, real=getattr(surf_module, name), name=name):
            seen.append((name, sum(int(np.count_nonzero((a != 0) & (np.abs(a) < tiny))) for a in mats)))
            return real(data, mats, *rest)
        monkeypatch.setattr(surf_module, name, spy)
    return seen


def _fwhm1_case(case):
    """A FWHM-1 white-noise stat3d LKC at r = 1, or one stat2d FWER
    replication (grid moments, t grid and ascent), as arrays."""
    from surfield.inference import fwer_experiment
    from surfield.lkc import lkc_compute

    if case == "stat3d white-noise LKC":
        dom = make_domain_preset("stat3d", 1.0)
        vec = lkc_compute("white-noise", GaussianKernel.isotropic(1.0, 3), VoxelManifold(dom.interior), 1,
                          sample_domain=dom)
        return {"lkc": np.array(vec.values)}
    return fwer_experiment("stat2d", 1.0, 20, 1, rng=RngSpec(3), keep_details=True).details


FWHM1_CASES = ["stat3d white-noise LKC", "stat2d FWER replication"]


@pytest.mark.parametrize("case", FWHM1_CASES)
def test_no_subnormal_kernel_operand_reaches_blas(monkeypatch, case):
    seen = _subnormal_operands(monkeypatch)
    _fwhm1_case(case)
    engines = {name for name, _ in seen}
    assert engines == ({"_contract"} if case.startswith("stat3d") else {"_contract", "_stack_contract"})
    assert sum(n for _, n in seen) == 0


@pytest.mark.parametrize("case", FWHM1_CASES)
def test_flushing_subnormal_operands_moves_no_bits(monkeypatch, case):
    from surfield import inference
    from surfield import surf as surf_module

    flushed = _fwhm1_case(case)
    inference._run_context.cache_clear()  # a run context keeps the factor matrices it flushed
    with monkeypatch.context() as m:
        m.setattr(surf_module, "_flush", lambda a: a)
        seen = _subnormal_operands(m)
        unflushed = _fwhm1_case(case)
    inference._run_context.cache_clear()
    assert sum(n for name, n in seen if name == "_contract") > 0  # the grid engine meets subnormal operands
    assert flushed.keys() == unflushed.keys()
    for key in flushed:
        assert np.array_equal(flushed[key], unflushed[key], equal_nan=True), key


# ---------------------------------------------------------------------------
# Workspaces
# ---------------------------------------------------------------------------


def test_nested_workspaces_restore_the_outer_binding(monkeypatch):
    from surfield import surf as surf_module
    from surfield.surf import _buf, _workspace

    monkeypatch.setattr(surf_module, "_pool", [])
    assert _buf("a", (2, 3)).shape == (2, 3)  # outside a workspace: a fresh array
    with _workspace() as outer:
        first = _buf("a", (2, 3))
        assert first.flags.c_contiguous and np.shares_memory(first, outer["a"])
        with pytest.raises(RuntimeError), _workspace() as inner:
            assert inner is not outer and np.shares_memory(_buf("a", (4,)), inner["a"])
            raise RuntimeError
        assert surf_module._bound.ws is outer
        grown = _buf("a", (10,))  # too small: grown, the old view keeps its memory
        assert grown.size == 10 and not np.shares_memory(grown, first)
        assert np.shares_memory(_buf("a", (2, 2)), grown)
    assert surf_module._bound.ws is None
    assert len(surf_module._pool) == 2 and {id(outer), id(inner)} == set(map(id, surf_module._pool))


def test_public_grid_results_are_no_workspace_views(monkeypatch):
    # an LKC leaves its slab workspaces in the pool; the grid functions that
    # return arrays take none of them and return fresh arrays
    from surfield import surf as surf_module
    from surfield.geometry import metric_on_grid
    from surfield.lkc import lkc_compute
    from surfield.surf import t_field_on_grid

    monkeypatch.setattr(surf_module, "_pool", [])
    dom = make_domain_preset("stat2d", 3.0)
    ens, k = sample_ensemble(dom, 6, RngSpec(2)), GaussianKernel.isotropic(3.0, 2)
    grid = refined_grid(VoxelManifold(dom.interior), 1)
    lkc_compute(ens, k, grid.manifold, 1, grid=grid)
    pool = [dict(ws) for ws in surf_module._pool]
    buffers = [{name: id(buf) for name, buf in ws.items()} for ws in pool]
    assert pool
    results = [t_field_on_grid(SurfSpec(ens, k), grid), *smooth_on_grid(ens, k, grid, 1).values(),
               metric_on_grid(ens, k, grid), metric_on_grid("white-noise", k, grid, dom)]
    assert [{name: id(buf) for name, buf in ws.items()} for ws in surf_module._pool] == buffers
    assert not any(np.shares_memory(a, buf) for a in results for ws in pool for buf in ws.values())


def test_workspace_pool_under_thread_contention(monkeypatch):
    # more threads than cores take and return workspaces with a short switch
    # interval: no workspace is held by two threads at once, and every one
    # made is back in the pool exactly once
    import sys
    import threading

    from surfield import surf as surf_module
    from surfield.surf import _buf, _workspace

    held, lock, clashes = set(), threading.Lock(), []

    def worker(k):
        for _ in range(300):
            with _workspace() as ws:
                with lock:
                    clash = id(ws) in held
                    held.add(id(ws))
                _buf("x", (k + 1,))[...] = k
                clash |= bool(np.any(_buf("x", (k + 1,)) != k))
                with lock:
                    held.discard(id(ws))
                    clashes.append(clash)

    monkeypatch.setattr(surf_module, "_pool", [])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(clashes) == 6 * 300 and not any(clashes)
    made = surf_module._pool
    assert 1 <= len(made) <= 6 and len(set(map(id, made))) == len(made)
