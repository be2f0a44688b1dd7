import math

import numpy as np
import pytest

from surfield.kernel import GaussianKernel, kernel_eval

LOG2 = math.log(2.0)


def test_maximum_at_zero_offset():
    k = GaussianKernel.isotropic(3.0, 2)
    assert kernel_eval(k, [1.0, 2.0], [1.0, 2.0]) == 1.0
    assert np.allclose(kernel_eval(k, [1.0, 2.0], [1.0, 2.0], "gradient"), 0.0)


def test_half_value_at_half_fwhm():
    for D in (1, 2, 3):
        f = 2.5
        k = GaussianKernel.isotropic(f, D)
        x = np.zeros(D)
        v = np.zeros(D)
        v[0] = f / 2.0
        assert kernel_eval(k, x, v) == pytest.approx(0.5, rel=1e-14)


def test_second_derivative_at_center_1d():
    # analytic: k'' (0) = -2c with c = 4 log 2 / f^2; cross-checked by
    # central finite differences
    f = 2.0
    k = GaussianKernel.isotropic(f, 1)
    h = kernel_eval(k, [0.0], [0.0], "hessian")[0, 0]
    assert h == pytest.approx(-8 * LOG2 / f**2, rel=1e-12)
    assert h == pytest.approx(-1.386294, abs=5e-7)
    eps = 1e-5
    fd = (
        kernel_eval(k, [eps], [0.0]) - 2 * kernel_eval(k, [0.0], [0.0]) + kernel_eval(k, [-eps], [0.0])
    ) / eps**2
    assert h == pytest.approx(fd, rel=1e-5)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    k = GaussianKernel((1.5, 2.0, 3.5))
    X = rng.uniform(-3, 3, size=(1000, 3))
    V = rng.uniform(-3, 3, size=(1000, 3))
    eps = 1e-6
    grad = np.stack([kernel_eval(k, x, v, "gradient") for x, v in zip(X, V)])
    hess = np.stack([kernel_eval(k, x, v, "hessian") for x, v in zip(X, V)])
    for d in range(3):
        e = np.zeros(3)
        e[d] = eps
        fd = np.array([
            (kernel_eval(k, x + e, v) - kernel_eval(k, x - e, v)) / (2 * eps)
            for x, v in zip(X, V)
        ])
        scale = np.maximum(np.abs(fd), 1e-3)
        assert np.max(np.abs(grad[:, d] - fd) / scale) < 1e-6
        fdg = np.stack([
            (kernel_eval(k, x + e, v, "gradient") - kernel_eval(k, x - e, v, "gradient"))
            / (2 * eps)
            for x, v in zip(X, V)
        ])
        scale = np.maximum(np.abs(fdg), 1e-3)
        assert np.max(np.abs(hess[:, d, :] - fdg) / scale) < 1e-6


def test_translation_invariance_and_symmetry():
    rng = np.random.default_rng(11)
    k = GaussianKernel((2.0, 1.0))
    for _ in range(50):
        x, v, shift = rng.normal(size=(3, 2))
        assert kernel_eval(k, x, v) == pytest.approx(kernel_eval(k, x + shift, v + shift), rel=1e-12)
        h = kernel_eval(k, x, v, "hessian")
        assert np.allclose(h, h.T)


def test_truncation_gives_exact_zeros():
    k = GaussianKernel.isotropic(2.0, 2, truncation=3.0)
    inside = kernel_eval(k, [0.0, 0.0], [2.0, 2.0])  # norm ~2.83 < 3
    assert inside > 0
    assert kernel_eval(k, [0.0, 0.0], [3.0, 1.0]) == 0.0
    assert np.all(kernel_eval(k, [0.0, 0.0], [3.0, 1.0], "gradient") == 0.0)
    assert np.all(kernel_eval(k, [0.0, 0.0], [3.0, 1.0], "hessian") == 0.0)


def test_invalid_construction():
    with pytest.raises(ValueError):
        GaussianKernel((0.0, 1.0))
    with pytest.raises(ValueError):
        GaussianKernel.isotropic(-1.0, 2)
    with pytest.raises(ValueError):
        GaussianKernel.isotropic(2.0, 1, truncation=0.0)


@pytest.mark.parametrize("fwhm, truncation", [
    ((math.nan,) * 2, None), ((math.inf,) * 2, None), ((2.0, math.nan), None),
    ((2.0, 2.0), math.nan), ((2.0, 2.0), math.inf),
])
def test_non_finite_parameters_rejected(fwhm, truncation):
    with pytest.raises(ValueError, match="finite"):
        GaussianKernel(fwhm, truncation)


def test_point_dimension_must_match_kernel():
    from surfield.geometry import metric
    from surfield.lattice import RngSpec, VoxelSet, sample_ensemble
    from surfield.surf import SurfSpec, surf_eval

    k = GaussianKernel.isotropic(2.0, 2)
    dom = VoxelSet(np.argwhere(np.ones((4, 4))).astype(float))
    ens = sample_ensemble(dom, 3, RngSpec(2))
    for call in (
        lambda: k.pairwise_value([[1.0]], dom.coords),
        lambda: kernel_eval(k, [1.0], [1.0, 1.0]),
        lambda: surf_eval(SurfSpec(ens, k), [[1.0]]),
        lambda: metric("white-noise", k, dom, [1.0]),
        lambda: metric(ens, k, None, [[1.0, 2.0, 3.0]]),
    ):
        with pytest.raises(ValueError, match="do not match the 2-D kernel"):
            call()


@pytest.mark.parametrize("point", [[math.nan, 3.0], [3.0, math.inf], [-math.inf, 3.0]])
@pytest.mark.parametrize("call", ["kernel_eval", "surf_covariance", "localization_support", "nondegeneracy_check"])
def test_non_finite_query_points_rejected(call, point):
    # every pairwise caller refuses the point, not returning every voxel, nan or 0.0
    from surfield.inference import localization_support, nondegeneracy_check
    from surfield.lattice import VoxelSet
    from surfield.surf import surf_covariance

    k = GaussianKernel.isotropic(2.0, 2, truncation=4.0 if call == "localization_support" else None)
    dom = VoxelSet(np.argwhere(np.ones((6, 6))).astype(float))
    with pytest.raises(ValueError, match="query points must be finite"):
        {"kernel_eval": lambda: kernel_eval(k, point, [1.0, 1.0], "hessian"),
         "surf_covariance": lambda: surf_covariance(k, dom, point, [1.0, 1.0]),
         "localization_support": lambda: localization_support(k, dom, point),
         "nondegeneracy_check": lambda: nondegeneracy_check(k, dom, point)}[call]()


@pytest.mark.parametrize("fwhm", [1.0, 3.0])
def test_axis_factors_keep_the_bits_of_each_order_alone(fwhm):
    # one exp serves every order; each factor equals axis_factor and the
    # expression of its order evaluated alone, at zero offset and deep in the
    # tail, where the factors are subnormal or zero
    k = GaussianKernel((fwhm, 2.0))
    for t in (np.zeros((3, 4)), np.linspace(-60.0, 60.0, 1201)[:, None] + np.array([0.0, 0.25, 1e-3])):
        c = k.decay[0]
        alone = [np.exp(-c * t**2), -2.0 * c * t * np.exp(-c * t**2),
                 (4.0 * c * c * t * t - 2.0 * c) * np.exp(-c * t**2)]
        factors = k.axis_factors(0, t, 2)
        assert len(factors) == 3
        for o in range(3):
            assert np.array_equal(factors[o], k.axis_factor(0, t, o))
            assert np.array_equal(factors[o], alone[o])
            assert np.array_equal(k.axis_factors(0, t, o)[o], alone[o])
    assert np.any((alone[0] > 0) & (alone[0] < np.finfo(np.float64).tiny))
    with pytest.raises(ValueError, match="unsupported axis derivative order 3"):
        k.axis_factors(0, t, 3)
