import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import surfield
from surfield.geometry import (
    _metric_expr,
    metric_on_grid,
    sqrt_det_psd,
    sqrt_det_sub,
    theta_batch,
)
from surfield.kernel import GaussianKernel
from surfield.lattice import RngSpec, VoxelSet, make_domain_preset, sample_ensemble
from surfield import lkc as lkc_module
from surfield.lkc import LkcVector, lkc_compute, lkc_stationary_closed_form
from surfield.manifold import RefinedGrid, VoxelManifold, euler_characteristic, refined_grid
from surfield.surf import SurfSpec, smooth_on_grid, t_field_on_grid

LOG2 = math.log(2.0)

# reference theoretical values for the boundary-padded box examples
# (independent-noise metric, trapezoid integrals at the stated resolution)
CLOSED_FORM_D1 = {1: 166.51, 1.5: 111.01, 2: 83.26, 2.5: 66.60, 3: 55.50, 3.5: 47.57, 4: 41.63}
CLOSED_FORM_D2 = {
    1: (66.60, 1109.00), 1.5: (44.40, 492.90), 2: (33.30, 277.26), 2.5: (26.64, 177.45),
    3: (22.20, 123.23), 3.5: (19.03, 90.53), 4: (16.65, 69.31),
}
CLOSED_FORM_D3 = {
    1: (99.91, 3327.11, 36933.30), 1.5: (66.60, 1478.71, 10943.20), 2: (49.95, 831.78, 4616.66),
    2.5: (39.96, 532.34, 2363.73), 3: (33.30, 369.68, 1367.90), 3.5: (28.54, 271.60, 861.42),
    4: (24.98, 207.94, 577.08),
}


def box_manifold(*dims):
    axes = [np.arange(1.0, n + 1.0) for n in dims]
    grids = np.meshgrid(*axes, indexing="ij")
    return VoxelManifold(VoxelSet(np.column_stack([g.ravel() for g in grids])))


def constant_metric_lkcs(grid, lam):
    """Drive the quadrature tables with a fixed metric (internal identity check)."""
    D = grid.dimension
    dom = grid.manifold.domain
    lam_pts = np.broadcast_to(lam, (grid.n_points, D, D))
    cell = np.prod(dom.spacing / (grid.r + 1))
    dets, _ = sqrt_det_psd(lam_pts)
    l_top = float(np.sum(grid.vol_weight * dets) * cell)
    l_bnd = 0.0
    for m in range(D):
        t = grid.face_tables[m]
        I = tuple(d for d in range(D) if d != m)
        sub, _ = sqrt_det_sub(lam_pts[t["ids"]], I)
        l_bnd += float(np.sum(t["weights"] * sub) * np.prod(dom.spacing[list(I)] / (grid.r + 1)))
    out = {grid.dimension: l_top, grid.dimension - 1: 0.5 * l_bnd}
    if D == 3:
        l1 = 0.0
        for t in grid.edge_tables:
            k = t["tangent"]
            theta = theta_batch(lam_pts[t["ids"]], k, t["types"], t["refl"])
            length, _ = sqrt_det_sub(lam_pts[t["ids"]], (k,))
            l1 += float(np.sum(t["weights"] * theta * length) * dom.spacing[k] / (grid.r + 1))
        out[1] = l1 / (2 * math.pi)
    return out


@pytest.mark.parametrize("f,want", list(CLOSED_FORM_D1.items()))
def test_closed_form_d1(f, want):
    vec = lkc_stationary_closed_form([100.0], f)
    assert vec[0] == 1.0
    assert vec[1] == pytest.approx(want, rel=2e-4)


@pytest.mark.parametrize("f,want", list(CLOSED_FORM_D2.items()))
def test_closed_form_d2(f, want):
    vec = lkc_stationary_closed_form([20.0, 20.0], f)
    assert (vec[1], vec[2]) == (pytest.approx(want[0], rel=2e-4), pytest.approx(want[1], rel=2e-4))


@pytest.mark.parametrize("f,want", list(CLOSED_FORM_D3.items()))
def test_closed_form_d3(f, want):
    vec = lkc_stationary_closed_form([20.0] * 3, f)
    for d in (1, 2, 3):
        assert vec[d] == pytest.approx(want[d - 1], rel=2e-4)


def test_closed_form_validation():
    with pytest.raises(ValueError):
        lkc_stationary_closed_form([0.0], 2.0)
    with pytest.raises(ValueError):
        lkc_stationary_closed_form([1.0], -2.0)


def test_white_noise_d1_reference():
    dom = make_domain_preset("stat1d", 3.0)
    vec = lkc_compute("white-noise", GaussianKernel.isotropic(3.0, 1), VoxelManifold(dom.interior),
                      11, sample_domain=dom)
    assert vec[1] == pytest.approx(55.50, rel=5e-3)
    assert vec[0] == 1.0


def test_white_noise_convergence_in_r():
    # successive refinements form a Cauchy sequence: r = 11 vs r = 23 within 0.2%
    dom = make_domain_preset("stat2d", 2.0)
    man = VoxelManifold(dom.interior)
    k = GaussianKernel.isotropic(2.0, 2)
    a = lkc_compute("white-noise", k, man, 11, sample_domain=dom)
    b = lkc_compute("white-noise", k, man, 23, sample_domain=dom)
    for d in (1, 2):
        assert abs(a[d] - b[d]) / b[d] < 0.002


def test_constant_metric_cube_identity():
    # constant c^2 I on an a x b x c box: the quadrature reproduces
    # L1 = c(a+b+c), L2 = c^2(ab+ac+bc), L3 = c^3 abc exactly
    a, b, c_len = 3, 2, 4
    scale = 1.7
    man = box_manifold(a, b, c_len)
    grid = refined_grid(man, 1)
    got = constant_metric_lkcs(grid, scale**2 * np.eye(3))
    assert got[3] == pytest.approx(scale**3 * a * b * c_len, rel=1e-12)
    assert got[2] == pytest.approx(scale**2 * (a * b + a * c_len + b * c_len), rel=1e-12)
    assert got[1] == pytest.approx(scale * (a + b + c_len), rel=1e-12)


def test_constant_metric_square_identity():
    side = 5
    man = box_manifold(side, side)
    grid = refined_grid(man, 3)
    got = constant_metric_lkcs(grid, 4.0 * np.eye(2))
    assert got[2] == pytest.approx(4.0 * side * side, rel=1e-12)
    assert got[1] == pytest.approx(2.0 * (side + side), rel=1e-12)


def test_l0_is_euler_characteristic():
    dom = make_domain_preset("nonstat2d")
    man = VoxelManifold(dom)
    vec = lkc_compute("white-noise", GaussianKernel.isotropic(2.0, 2), man, 1)
    assert vec[0] == float(euler_characteristic(man)) == 0.0


def test_ensemble_estimates_track_theory_d2():
    dom = make_domain_preset("stat2d", 3.0)
    man = VoxelManifold(dom.interior)
    k = GaussianKernel.isotropic(3.0, 2)
    theory = lkc_compute("white-noise", k, man, 3, sample_domain=dom)
    reps = 40
    n = 20
    est = np.array([
        lkc_compute(sample_ensemble(dom, n, RngSpec(1000, b)), k, man, 3).values
        for b in range(reps)
    ])
    # pointwise unbiasedness of the sqrt-determinant makes the mean land on
    # the same-resolution theory value; allow 3 standard errors
    for d in (1, 2):
        se = est[:, d].std(ddof=1) / math.sqrt(reps)
        assert abs(est[:, d].mean() - theory[d]) < 3 * se


def test_consistency_sd_shrinks_with_n():
    dom = make_domain_preset("stat1d", 3.0)
    man = VoxelManifold(dom.interior)
    k = GaussianKernel.isotropic(3.0, 1)
    reps = 30
    sds = {}
    for n in (10, 100):
        vals = [
            lkc_compute(sample_ensemble(dom, n, RngSpec(55, b)), k, man, 3)[1]
            for b in range(reps)
        ]
        sds[n] = np.std(vals, ddof=1)
    assert sds[10] / sds[100] > 1.5


def _ec_oracle():
    """``scripts/ec_oracle.py`` as a module."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "ec_oracle", Path(__file__).resolve().parents[1] / "scripts" / "ec_oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_euler_characteristic_oracle_matches_top_curvatures_of_the_shell():
    # Independent of the metric, angles and quadrature: the ECs of excursion sets of
    # smoothed, normalized white noise on the refined grid's cubical complex, fitted
    # to E chi(u) = sum_d L_d rho_d(u) with L_0 = chi(M), give L_2 and L_3 of the
    # ragged nonstat3d shell (L_1 is left out: its locally stationary form overstates
    # the oracle's)
    oracle = _ec_oracle()
    dom = make_domain_preset("nonstat3d")
    man, k = VoxelManifold(dom), GaussianKernel.isotropic(3.0, 3)
    grid = refined_grid(man, 1)
    chi = euler_characteristic(man)
    ec = oracle.excursion_ec(grid, np.zeros((1, grid.n_points)))[0]  # every cell of the complex at u < 0
    assert np.all(ec[oracle.LEVELS < -1] == chi) and np.all(ec[oracle.LEVELS > 1] == 0)
    fields = oracle.normalized_white_noise(grid, k, dom, 400, np.random.default_rng(1))
    fit, se = oracle.fit_lkcs(np.concatenate([oracle.excursion_ec(grid, f) for f in fields]), chi)
    want = lkc_compute("white-noise", k, man, 1, grid=grid)
    for d in (2, 3):
        assert abs(fit[d - 1] - want[d]) < 4 * se[d - 1], (d, fit[d - 1], se[d - 1], want[d])
        assert se[d - 1] < 0.03 * want[d]


def test_nonstat_presets_compute():
    dom = make_domain_preset("nonstat2d")
    man = VoxelManifold(dom)
    vec = lkc_compute("white-noise", GaussianKernel.isotropic(2.0, 2), man, 3)
    assert vec[2] > 0 and vec[1] > 0
    dom3 = make_domain_preset("nonstat3d")
    man3 = VoxelManifold(dom3)
    vec3 = lkc_compute("white-noise", GaussianKernel.isotropic(3.0, 3), man3, 1)
    assert vec3[3] > 0 and vec3[2] > 0
    assert vec3.l1_locally_stationary


def test_r0_rejected_and_bad_ensemble_rejected():
    dom = make_domain_preset("nonstat1d")
    man = VoxelManifold(dom)
    k = GaussianKernel.isotropic(2.0, 1)
    with pytest.raises(ValueError):
        lkc_compute("white-noise", k, man, 0)
    with pytest.raises(ValueError):
        lkc_compute(sample_ensemble(dom, 1, RngSpec(0)), k, man, 1)


@pytest.mark.parametrize("r", [1.5, True])
def test_non_integral_r_rejected_before_a_grid_is_built(monkeypatch, r):
    # r = 1.5 used to build the r = 1 grid with the r = 1.5 quadrature spacing
    dom = make_domain_preset("stat2d", 3.0)
    man = VoxelManifold(dom.interior)

    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(lkc_module, "refined_grid", no_grid)
    monkeypatch.setattr(RefinedGrid, "__init__", no_grid)
    with pytest.raises(TypeError, match=f"added resolution must be an integer, got {r!r}"):
        lkc_compute("white-noise", GaussianKernel.isotropic(3.0, 2), man, r, sample_domain=dom)


def test_lkc_vector_invariants():
    with pytest.raises(ValueError):
        LkcVector((1.0, 2.0, -0.5), r=1, source="estimate")


def test_white_noise_lkcs_invariant_under_lattice_symmetries():
    # the isotropic kernel makes the white-noise curvatures of a mask
    # invariant under axis permutations, reflections and translations; the
    # edge term only stays invariant if every edge orientation is brought
    # to its canonical form correctly
    rng = np.random.default_rng(21)
    pts = np.unique(rng.integers(0, 4, size=(36, 3)), axis=0).astype(float)
    k = GaussianKernel.isotropic(1.5, 3)

    def lkcs(coords):
        return np.array(lkc_compute("white-noise", k, VoxelManifold(VoxelSet(coords)), 1).values)

    base = lkcs(pts)
    variants = [pts[:, (2, 0, 1)], pts[:, (1, 0, 2)], pts + np.array([7.0, -3.0, 11.0])]
    for d in range(3):
        flipped = pts.copy()
        flipped[:, d] = -flipped[:, d]
        variants.append(flipped)
    for coords in variants:
        np.testing.assert_allclose(lkcs(coords), base, rtol=1e-12)


@pytest.fixture(scope="module")
def nonstat3d_r3():
    # ragged shell with convex, double-convex and concave edges
    man = VoxelManifold(make_domain_preset("nonstat3d"))
    return man, refined_grid(man, 3)


@pytest.mark.parametrize("case", ["white-noise", "ensemble", "box white-noise", "box ensemble"])
def test_slab_streaming_matches_one_slab(monkeypatch, nonstat3d_r3, case):
    man, grid = nonstat3d_r3
    k = GaussianKernel.isotropic(2.0, 3)
    slab_points = 10_000  # one full row or three rows through the hollow per slab
    if case.startswith("box"):
        man = VoxelManifold(make_domain_preset("stat2d", 3.0).interior)
        grid, k, slab_points = refined_grid(man, 3), GaussianKernel.isotropic(3.0, 2), 500
    source = sample_ensemble(man.domain, 8, RngSpec(17)) if case.endswith("ensemble") else "white-noise"
    # every slab is a range of whole rows, known from its bounds: no point is
    # located or taken, the shell's ragged rows writing their present keys
    calls = {"axis_positions": 0, "take": 0}

    def counted(name, real):
        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    monkeypatch.setattr(RefinedGrid, "axis_positions", counted("axis_positions", RefinedGrid.axis_positions))
    monkeypatch.setattr(np, "take", counted("take", np.take))
    metrics = []
    monkeypatch.setattr(lkc_module, "_metric_expr", lambda *b: metrics.append(_metric_expr(*b)) or metrics[-1])
    monkeypatch.setattr(lkc_module, "_SLAB_THREADS", 1)  # the spies record in slab order
    monkeypatch.setattr(lkc_module, "_SLAB_ENTRIES", 1 << 62)  # slabs bounded by points alone

    def run(slab_points):
        monkeypatch.setattr(lkc_module, "_SLAB_POINTS", slab_points)
        metrics.clear()
        vec = lkc_compute(source, k, man, 3, grid=grid)
        return vec, np.concatenate(metrics)

    one, lam_one = run(grid.n_points)
    many, lam_many = run(slab_points)
    assert len(lkc_module._slabs(grid, 1)) > 12
    np.testing.assert_allclose(many.values, one.values, rtol=1e-13, atol=0)
    assert many.diagnostics == one.diagnostics
    if case.startswith("box"):  # a whole-row slab contracts its own block: the same bits
        assert np.array_equal(lam_many, lam_one)
    else:
        np.testing.assert_allclose(lam_many, lam_one, rtol=1e-13, atol=1e-15)
    assert calls == {"axis_positions": 0, "take": 0}


def test_multi_slab_white_noise_lkc_embeds_the_unit_field_once(monkeypatch, embeddings):
    dom = make_domain_preset("nonstat2d")
    man = VoxelManifold(dom)
    grid = refined_grid(man, 3)
    monkeypatch.setattr(lkc_module, "_SLAB_POINTS", 100)
    assert len(lkc_module._slabs(grid, 1)) > 20
    lkc_compute("white-noise", GaussianKernel.isotropic(2.0, 2), man, 3, grid=grid)
    assert len(embeddings) == 1 and embeddings[0] is dom.unit_field


def _points_rule(grid, limit):
    """Slab bounds found by searching the sorted axis-0 keys for each axis-0
    grid key: a row opens a slab where the open one would pass ``limit``
    points with it."""
    starts = np.searchsorted(grid.keys[:, 0], grid.axis_keys[0])
    want = [0]
    for a, b in zip(starts[1:], np.append(starts[2:], grid.n_points)):
        if b - want[-1] > limit:
            want.append(a)
    return want + [grid.n_points]


def test_blocks_of_the_benchmark_paths():
    # the one partition on the benchmark's grids: the 50-subject stat2d r = 1
    # grid (84,050 entries, the FWER path) is one slab; white-noise slabs
    # follow the points bound alone; every 50-subject nonstat3d shell slab is
    # within the entry bound unless it is one row; the 50-subject stat3d r = 1
    # slabs are balanced, so both slab threads have work to the end
    grid = refined_grid(VoxelManifold(make_domain_preset("stat2d", 3.0).interior), 1)
    assert 50 * grid.n_points == 84_050
    assert list(lkc_module._slabs(grid, 50)) == [0, grid.n_points]
    grid = refined_grid(VoxelManifold(make_domain_preset("stat3d", 3.0).interior), 3)
    bounds = lkc_module._slabs(grid, 1)
    assert len(bounds) > 3 and list(bounds) == _points_rule(grid, lkc_module._SLAB_POINTS)
    grid = refined_grid(VoxelManifold(make_domain_preset("nonstat3d")), 1)
    bounds = lkc_module._slabs(grid, 50)
    assert len(bounds) > 5
    assert all(50 * (b - a) <= lkc_module._SLAB_ENTRIES or len(np.unique(grid.keys[a:b, 0])) == 1
               for a, b in zip(bounds, bounds[1:]))
    grid = refined_grid(VoxelManifold(make_domain_preset("stat3d", 3.0).interior), 1)
    sizes = np.diff(lkc_module._slabs(grid, 50))
    assert len(sizes) >= 4 and sizes.max() <= 2 * sizes.min()


def _shell_lkc_case():
    dom = make_domain_preset("nonstat3d")
    man, k, ens = VoxelManifold(dom), GaussianKernel.isotropic(3.0, 3), sample_ensemble(dom, 50, RngSpec(5))
    return ens, k, man, refined_grid(man, 1)


def test_ensemble_lkc_memory_follows_the_blocks(monkeypatch):
    # 50-subject nonstat3d r = 1 ensemble LKC from an empty workspace pool, so
    # that the workspaces it keeps are traced: columns of the slabs the two
    # slab threads hold, each within the entry bound, not of the grid's
    # 39,130 points, are alive at once
    import tracemalloc

    from surfield import surf as surf_module

    ens, k, man, grid = _shell_lkc_case()
    lkc_compute(ens, k, man, 1, grid=grid)  # builds the ensemble's data tensor
    monkeypatch.setattr(surf_module, "_pool", [])
    tracemalloc.start()
    try:
        lkc_compute(ens, k, man, 1, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert surf_module._pool
    assert peak < 32e6


def test_warm_ensemble_lkc_faults_in_no_fresh_pages(monkeypatch):
    # each slab's temporaries live in its thread's workspace, whose pages
    # the warm-up calls faulted in; fresh arrays freed at every slab end
    # would fault in about 13,000 pages per call again
    import resource

    from surfield import surf as surf_module

    ens, k, man, grid = _shell_lkc_case()
    monkeypatch.setattr(surf_module, "_pool", [])
    for _ in range(2):
        lkc_compute(ens, k, man, 1, grid=grid)
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        lkc_compute(ens, k, man, 1, grid=grid)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert min(faults) < 2000, faults


def _workspace_users():
    """Per name, a call the interleaving runs, as bytes: four LKCs whose slab threads hold
    workspaces, and a t grid, which takes none but reads the same engine."""
    stat3d, shell, stat2d = (make_domain_preset(p, f) for p, f in (("stat3d", 3.0), ("nonstat3d", None),
                                                                  ("stat2d", 3.0)))
    k3, k2 = GaussianKernel.isotropic(3.0, 3), GaussianKernel.isotropic(3.0, 2)
    box3, box2, shell_man = VoxelManifold(stat3d.interior), VoxelManifold(stat2d.interior), VoxelManifold(shell)
    ens3, ens_shell, ens2 = (sample_ensemble(d, 50, RngSpec(8)) for d in (stat3d, shell, stat2d))
    grid3, grid_shell, grid2 = refined_grid(box3, 1), refined_grid(shell_man, 1), refined_grid(box2, 1)

    def values(vec):
        return np.array(vec.values).tobytes() + repr(vec.diagnostics).encode()

    return {
        "stat3d 50-subject": lambda: values(lkc_compute(ens3, k3, box3, 1, grid=grid3)),
        "shell 50-subject": lambda: values(lkc_compute(ens_shell, k3, shell_man, 1, grid=grid_shell)),
        "stat2d 50-subject": lambda: values(lkc_compute(ens2, k2, box2, 1, grid=grid2)),
        "stat3d r3 white-noise": lambda: values(lkc_compute("white-noise", k3, box3, 3, sample_domain=stat3d)),
        "t field": lambda: t_field_on_grid(SurfSpec(ens3, k3), grid3).tobytes(),
    }


def test_reused_workspaces_move_no_bits(monkeypatch):
    # each call against the same call without workspaces (every buffer a
    # fresh array) and from an empty pool, then interleaved in both orders,
    # so that every call also meets buffers a larger call left stale
    from contextlib import nullcontext

    from surfield import surf as surf_module

    users = _workspace_users()
    with monkeypatch.context() as m:
        for module in (surf_module, lkc_module):
            m.setattr(module, "_workspace", nullcontext)
        fresh = {name: call() for name, call in users.items()}
    for name, call in users.items():
        monkeypatch.setattr(surf_module, "_pool", [])
        assert call() == fresh[name], name
    monkeypatch.setattr(surf_module, "_pool", [])
    for name in [*users, *reversed(users)]:
        assert users[name]() == fresh[name], name


def test_slab_thread_errors_return_both_workspaces(monkeypatch, slab_spy):
    import threading

    from surfield import surf as surf_module

    if _blas_count() is None or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("slab threads need numpy's OpenBLAS and two cores")
    source, k, man, r, kwargs = _threading_cases("stat3d r3 white-noise")
    main, helper_started = threading.get_ident(), threading.Event()
    spy = lkc_module._moments

    def gated(*args, **kw):  # the helper takes a slab before the caller's first one runs
        if threading.get_ident() == main:
            assert helper_started.wait(30)
        else:
            helper_started.set()
        return spy(*args, **kw)

    monkeypatch.setattr(surf_module, "_pool", [])
    monkeypatch.setattr(lkc_module, "_moments", gated)
    first = np.array(lkc_compute(source, k, man, r, **kwargs).values)
    pool = list(surf_module._pool)
    assert len(pool) == 2
    slab_spy.seen.clear()
    slab_spy.fail(lambda entry: entry[1] != main)
    with pytest.raises(np.linalg.LinAlgError):
        lkc_compute(source, k, man, r, **kwargs)
    assert {t for _, t, _ in slab_spy.seen} - {main}
    assert sorted(map(id, surf_module._pool)) == sorted(map(id, pool))
    assert getattr(surf_module._bound, "ws", None) is None
    slab_spy.fail(lambda entry: False)
    assert np.array(lkc_compute(source, k, man, r, **kwargs).values).tobytes() == first.tobytes()


@pytest.mark.parametrize("case, message", [
    ("white-noise", "manifold is 2-D but the kernel is 3-D"),
    ("ensemble", "manifold is 2-D but the kernel is 3-D"),
    ("1-D ensemble", "sample domain is 1-D but the kernel is 2-D"),
    ("sample domain", "sample domain is 3-D but the kernel is 2-D"),
])
def test_lkc_rejects_a_kernel_of_another_dimension(case, message):
    man = VoxelManifold(make_domain_preset("nonstat2d"))
    k = GaussianKernel.isotropic(2.0, 3 if case in ("white-noise", "ensemble") else 2)
    source, extra = "white-noise", {}
    if case == "ensemble":
        source = sample_ensemble(man.domain, 3, RngSpec(1))
    elif case == "1-D ensemble":
        source = sample_ensemble(make_domain_preset("nonstat1d"), 3, RngSpec(1))
    elif case == "sample domain":
        extra = {"sample_domain": make_domain_preset("nonstat3d")}
    with pytest.raises(ValueError, match=message):
        lkc_compute(source, k, man, 1, **extra)


def test_geometry_rejects_a_kernel_of_another_dimension():
    from surfield.geometry import metric

    dom = make_domain_preset("nonstat2d")
    grid = refined_grid(VoxelManifold(dom), 1)
    k3 = GaussianKernel.isotropic(2.0, 3)
    with pytest.raises(ValueError, match="voxel domain is 2-D but the kernel is 3-D"):
        metric_on_grid("white-noise", k3, grid)
    with pytest.raises(ValueError, match="voxel domain is 2-D but the kernel is 3-D"):
        metric("white-noise", k3, dom, np.zeros((2, 3)))
    ens1 = sample_ensemble(make_domain_preset("nonstat1d"), 3, RngSpec(1))
    with pytest.raises(ValueError, match="domain is 1-D but the kernel is 2-D"):
        metric(ens1, GaussianKernel.isotropic(2.0, 2), None, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="grid is 2-D but the kernel is 1-D"):
        metric_on_grid(ens1, GaussianKernel.isotropic(2.0, 1), grid)


@pytest.mark.parametrize("name", ["stat3d", "nonstat3d", "gapped"])
def test_slab_bounds_match_key_search(monkeypatch, nonstat3d_r3, name):
    # the row starts from per-row point counts equal those found by
    # searching the sorted axis-0 keys for each axis-0 grid key, also where
    # a gap between boxes leaves key rows without points
    if name == "stat3d":
        grid = refined_grid(VoxelManifold(make_domain_preset("stat3d", 1.0).interior), 3)
    elif name == "gapped":
        coords = box_manifold(5, 3, 3).domain.coords
        grid = refined_grid(VoxelManifold(VoxelSet(coords[coords[:, 0] != 3])), 3)
    else:
        grid = nonstat3d_r3[1]
    # an ensemble's bound is its entries per subject where that is the smaller
    np.testing.assert_array_equal(lkc_module._slabs(grid, 7), _points_rule(grid, lkc_module._SLAB_ENTRIES // 7))
    for slab_points in (1 << 16, 5000, 1):
        monkeypatch.setattr(lkc_module, "_SLAB_POINTS", slab_points)
        np.testing.assert_array_equal(lkc_module._slabs(grid, 1), _points_rule(grid, slab_points))


def test_slab_partition_is_built_once_per_grid_and_bound(monkeypatch):
    # the bounds and per-slab quadrature tables are cached on the grid per
    # point bound: a warm call splits nothing and keeps every bit, and an
    # ensemble's entry bound is a partition of its own
    from surfield import manifold

    man = VoxelManifold(make_domain_preset("nonstat3d"))
    grid, k = refined_grid(man, 1), GaussianKernel.isotropic(2.0, 3)
    splits = []

    def counted(*args, real=manifold._split):
        splits.append(args[1])
        return real(*args)

    monkeypatch.setattr(manifold, "_split", counted)
    cold = lkc_compute("white-noise", k, man, 1, grid=grid)
    assert len(splits) == 3 + 3 and all(b is lkc_module._slabs(grid, 1) for b in splits)  # faces, edges
    warm = lkc_compute("white-noise", k, man, 1, grid=grid)
    assert len(splits) == 6 and np.array(warm.values).tobytes() == np.array(cold.values).tobytes()
    lkc_compute(sample_ensemble(man.domain, 50, RngSpec(2)), k, man, 1, grid=grid)
    assert len(splits) == 12 and splits[-1] is lkc_module._slabs(grid, 50)


def _blas_count():
    from surfield.surf import _openblas

    return _openblas()[1]() if _openblas() else None


@pytest.fixture
def slab_spy(monkeypatch):
    """Per slab lkc_compute computes, (first grid id, thread ident, BLAS thread
    count while it runs); ``fail(pred)`` makes ``theta_batch`` raise
    LinAlgError in every slab whose entry satisfies pred."""
    import threading

    seen, local, failing = [], threading.local(), [lambda entry: False]
    moments = lkc_module._moments

    def spy(*args, ids, **kwargs):
        local.entry = (ids.start, threading.get_ident(), _blas_count())
        seen.append(local.entry)
        return moments(*args, ids=ids, **kwargs)

    def theta(*args):
        if failing[0](local.entry):
            raise np.linalg.LinAlgError(f"no angle in the slab from id {local.entry[0]}")
        return theta_batch(*args)

    monkeypatch.setattr(lkc_module, "_moments", spy)
    monkeypatch.setattr(lkc_module, "theta_batch", theta)
    spy.seen, spy.fail = seen, lambda pred: failing.__setitem__(0, pred)
    return spy


def _threading_cases(name):
    """(source, kernel, manifold, r, keyword arguments) of a multi-slab LKC."""
    dom = make_domain_preset("stat3d", 3.0)
    man, k = VoxelManifold(dom.interior), GaussianKernel.isotropic(3.0, 3)
    if name == "stat3d r3 white-noise":  # 9 slabs
        return "white-noise", k, man, 3, {"sample_domain": dom}
    if name == "nonstat3d r1 50-subject ensemble":  # the benchmark's CLI LKC: slabs bounded by entries
        shell = make_domain_preset("nonstat3d")
        return sample_ensemble(shell, 50, RngSpec(6)), k, VoxelManifold(shell), 1, {}
    return sample_ensemble(dom, 8, RngSpec(3)), k, man, 1, {}  # "stat3d r1 ensemble": 3 slabs


@pytest.mark.parametrize("name", ["stat3d r3 white-noise", "stat3d r1 ensemble", "nonstat3d r1 50-subject ensemble"])
def test_slab_threads_match_the_serial_loop_bit_for_bit(monkeypatch, slab_spy, name):
    import threading

    source, k, man, r, kwargs = _threading_cases(name)
    before = _blas_count()
    threaded = lkc_compute(source, k, man, r, **kwargs)
    assert _blas_count() == before
    n_slabs = len(slab_spy.seen)
    assert n_slabs >= 2
    if before is not None and len(os.sched_getaffinity(0)) > 1:  # both threads ran slabs, BLAS at one thread
        assert {t for _, t, _ in slab_spy.seen} - {threading.get_ident()}
        assert {b for _, _, b in slab_spy.seen} == {1}
    monkeypatch.setattr(lkc_module, "_SLAB_THREADS", 1)
    slab_spy.seen.clear()
    serial = lkc_compute(source, k, man, r, **kwargs)
    assert {t for _, t, _ in slab_spy.seen} == {threading.get_ident()} and len(slab_spy.seen) == n_slabs
    assert np.array(threaded.values).tobytes() == np.array(serial.values).tobytes()
    assert threaded.diagnostics == serial.diagnostics


def test_slab_thread_errors_surface_as_the_serial_loop_raises_them(monkeypatch, slab_spy):
    # the helper's slabs fail; the caller waits in its first slab until the
    # helper has taken one, so the lowest failing slab runs on the helper
    import threading

    if _blas_count() is None or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("slab threads need numpy's OpenBLAS and two cores")
    source, k, man, r, kwargs = _threading_cases("stat3d r3 white-noise")
    main, helper_started = threading.get_ident(), threading.Event()
    spy = lkc_module._moments

    def gated(*args, **kw):
        if threading.get_ident() == main:
            assert helper_started.wait(30)
        else:
            helper_started.set()
        return spy(*args, **kw)

    monkeypatch.setattr(lkc_module, "_moments", gated)
    slab_spy.fail(lambda entry: entry[1] != main)
    before = _blas_count()
    with pytest.raises(np.linalg.LinAlgError) as threaded:
        lkc_compute(source, k, man, r, **kwargs)
    assert _blas_count() == before
    failed = {start for start, t, _ in slab_spy.seen if t != main}
    assert failed and len(slab_spy.seen) < 9  # no slab was taken after the failure
    monkeypatch.setattr(lkc_module, "_SLAB_THREADS", 1)
    monkeypatch.setattr(lkc_module, "_moments", spy)
    slab_spy.fail(lambda entry: entry[0] in failed)
    with pytest.raises(np.linalg.LinAlgError) as serial:
        lkc_compute(source, k, man, r, **kwargs)
    assert str(threaded.value) == str(serial.value) == f"no angle in the slab from id {min(failed)}"


def test_slab_threads_without_the_blas_switch_run_serially(monkeypatch, slab_spy):
    import threading

    from surfield import surf as surf_module

    source, k, man, r, kwargs = _threading_cases("stat3d r1 ensemble")
    threaded = lkc_compute(source, k, man, r, **kwargs)
    slab_spy.seen.clear()
    monkeypatch.setattr(surf_module, "_openblas", lambda: None)
    serial = lkc_compute(source, k, man, r, **kwargs)
    n_slabs = len(lkc_module._slabs(refined_grid(man, r), source.n_fields)) - 1
    assert n_slabs >= 2 and len(slab_spy.seen) == n_slabs
    assert {t for _, t, _ in slab_spy.seen} == {threading.get_ident()}
    assert np.array(threaded.values).tobytes() == np.array(serial.values).tobytes()


def test_concurrent_lkc_calls_share_the_blas_switch_and_the_workspace_pool(monkeypatch):
    # two user threads each run the 8-subject stat3d LKC (three slabs, shared with a
    # helper thread), both inside the process-wide BLAS switch at once, each slab
    # thread in a workspace of the pool, from an empty pool
    import threading
    from contextlib import contextmanager

    from surfield import surf as surf_module

    dom = make_domain_preset("stat3d", 3.0)
    man, k = VoxelManifold(dom.interior), GaussianKernel.isotropic(3.0, 3)
    grid = refined_grid(man, 1)
    assert len(lkc_module._slabs(grid, 8)) == 4
    ensembles = [sample_ensemble(dom, 8, RngSpec(4, b)) for b in range(2)]
    serial = [lkc_compute(ens, k, man, 1, grid=grid).values for ens in ensembles]
    two_cores = len(os.sched_getaffinity(0)) > 1
    before, inside, users, real = _blas_count(), threading.Barrier(2, timeout=60), [], lkc_module._one_blas_thread

    @contextmanager
    def both_inside():  # each call holds the switch until the other has entered it
        with real() as switched:
            inside.wait()
            users.append(surf_module._blas_users)
            yield switched

    monkeypatch.setattr(lkc_module, "_one_blas_thread", both_inside)
    monkeypatch.setattr(surf_module, "_pool", [])
    out = [None, None]

    def run(b):
        out[b] = lkc_compute(ensembles[b], k, man, 1, grid=grid).values

    callers = [threading.Thread(target=run, args=(b,)) for b in range(2)]
    for t in callers:
        t.start()
    for t in callers:
        t.join()
    assert out == serial
    assert users == ([2, 2] if two_cores else [])
    assert _blas_count() == before
    assert surf_module._pool and getattr(surf_module._bound, "ws", None) is None


def test_reading_keeps_the_value_column_of_one_slab_ensemble_calls():
    # only an ensemble call on the watched grid whose partition is one slab keeps
    # its uncentred value column, the grid engine's bits; keeping it moves no LKC bit
    dom = make_domain_preset("stat2d", 3.0)
    man, k = VoxelManifold(dom.interior), GaussianKernel.isotropic(3.0, 2)
    grid, other = refined_grid(man, 1), refined_grid(man, 1)
    ens, two_slab = sample_ensemble(dom, 50, RngSpec(5)), sample_ensemble(dom, 120, RngSpec(5))
    assert len(lkc_module._slabs(grid, 50)) == 2 and len(lkc_module._slabs(grid, 120)) == 3
    alone = lkc_compute(ens, k, man, 1, grid=grid)
    with lkc_module._reading(grid) as kept:
        within = lkc_compute(ens, k, man, 1, grid=grid)
        assert len(kept) == 1 and kept[0].shape == (50, grid.n_points)
        assert kept[0].tobytes() == smooth_on_grid(ens, k, grid)["value"].tobytes()
        with lkc_module._reading(other) as inner:
            lkc_compute(ens, k, man, 1, grid=grid)
            lkc_compute(ens, k, man, 1, grid=other)
        assert len(inner) == 1 and inner[0].tobytes() == kept[0].tobytes()
        lkc_compute(two_slab, k, man, 1, grid=grid)
        lkc_compute(ens, k, man, 1, grid=other)
        lkc_compute("white-noise", k, man, 1, sample_domain=dom, grid=grid)
        assert len(kept) == 1  # the nested block restored this one
    assert getattr(lkc_module._watched, "on", None) is None
    assert np.array(within.values).tobytes() == np.array(alone.values).tobytes()


def test_one_blas_thread_switch_nests_and_restores_on_errors():
    from surfield.surf import _one_blas_thread, _openblas

    if _openblas() is None:
        with _one_blas_thread() as switched:
            assert not switched
        return
    set_threads, get_threads = _openblas()
    old = get_threads()
    try:
        set_threads(2)
        with _one_blas_thread() as switched:
            assert switched and get_threads() == 1
            with pytest.raises(RuntimeError), _one_blas_thread():
                assert get_threads() == 1
                raise RuntimeError
            assert get_threads() == 1  # the outer block still holds the switch
        assert get_threads() == 2
    finally:
        set_threads(old)


def test_ensemble_lkcs_and_t_field_bits_independent_of_blas_threads():
    # Each run is a fresh process, since OpenBLAS reads its thread count at load.
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from surfield.kernel import GaussianKernel\n"
        "from surfield.lattice import RngSpec, make_domain_preset, sample_ensemble\n"
        "from surfield.lkc import lkc_compute\n"
        "from surfield.manifold import VoxelManifold, refined_grid\n"
        "from surfield.surf import SurfSpec, t_field_on_grid\n"
        "dom = make_domain_preset('nonstat3d')\n"
        "man, k = VoxelManifold(dom), GaussianKernel.isotropic(3.0, 3)\n"
        "ens = sample_ensemble(dom, 50, RngSpec(5))\n"
        "grid = refined_grid(man, 1)\n"
        "print(np.array(lkc_compute(ens, k, man, 1, grid=grid).values).tobytes().hex())\n"
        "print(hashlib.sha256(t_field_on_grid(SurfSpec(ens, k), grid).tobytes()).hexdigest())\n"
        "box = make_domain_preset('stat3d', 3.0)\n"  # 9 slabs, threaded
        "vec = lkc_compute('white-noise', k, VoxelManifold(box.interior), 3, sample_domain=box)\n"
        "print(np.array(vec.values).tobytes().hex())\n"
    )
    src = str(Path(surfield.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs.append(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                   text=True, timeout=120, check=True).stdout)
    assert runs[0] == runs[1]
