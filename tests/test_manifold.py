import itertools
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import surfield
from surfield.kernel import GaussianKernel
from surfield.lattice import PRESET_NAMES, RngSpec, VoxelSet, make_domain_preset, sample_ensemble
from surfield.lkc import lkc_compute
from surfield.manifold import (
    EdgeType,
    VoxelManifold,
    _check_grid_size,
    classify_boundary,
    euler_characteristic,
    refined_grid,
)
from surfield.surf import SurfSpec, _grid_sums, t_field_on_grid


def box_set(n1, n2=None, n3=None):
    dims = [n1] + [n for n in (n2, n3) if n is not None]
    axes = [np.arange(float(n)) for n in dims]
    grids = np.meshgrid(*axes, indexing="ij")
    return VoxelSet(np.column_stack([g.ravel() for g in grids]))


def test_refined_grid_1d_example():
    g = refined_grid(VoxelManifold(VoxelSet(np.array([[1.0], [2.0]]))), 1)
    assert sorted(g.points.ravel().tolist()) == [0.5, 1.0, 1.5, 2.0, 2.5]


def test_refined_grid_dedup_count():
    g = refined_grid(VoxelManifold(VoxelSet(np.arange(1.0, 101.0)[:, None])), 3)
    assert g.n_points == 401


def test_even_r_rejected():
    man = VoxelManifold(VoxelSet(np.array([[1.0], [2.0]])))
    with pytest.raises(ValueError):
        refined_grid(man, 2)


@pytest.mark.parametrize("r", [1.5, 2.9, 3.0, True, "3"])
def test_non_integral_r_rejected(r):
    # int(r) would silently build another grid; 2.9 used to fail as even
    man = VoxelManifold(VoxelSet(np.array([[1.0], [2.0]])))
    with pytest.raises(TypeError, match=f"added resolution must be an integer, got {r!r}"):
        refined_grid(man, r)
    assert refined_grid(man, np.int64(3)).r == 3


def test_oversized_grid_refused_before_allocating():
    man = VoxelManifold(make_domain_preset("stat3d", 1.0).interior)
    tracemalloc.start()
    t = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="r = 101 .* GiB"):
            refined_grid(man, 101)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t < 1.0
    assert peak < 1 << 20


def test_nearly_empty_index_box_refused_before_allocating():
    # 360 voxels on the diagonal span a 360^3 index box: the r = 1 key box
    # alone (721^3 ids) is over the cap, whatever the voxel count
    diagonal = VoxelSet(np.repeat(np.arange(360.0)[:, None], 3, axis=1))
    man = VoxelManifold(diagonal)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="r = 1 .* GiB"):
            refined_grid(man, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_grid_size_estimate_bounds_the_build():
    man = VoxelManifold(make_domain_preset("stat3d", 1.0).interior)
    _, estimate = _check_grid_size(man, 3)
    tracemalloc.start()
    try:
        refined_grid(man, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= estimate < 1.5 * peak


@pytest.mark.parametrize("r", [0, 1, 3])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_grid_size_estimate_covers_the_points(name, r):
    dom = make_domain_preset(name, 2.0 if name.startswith("stat") else None)
    for man in map(VoxelManifold, filter(None, (dom, dom.interior))):
        points, _ = _check_grid_size(man, r)
        assert points >= refined_grid(man, r).n_points


def test_stat3d_r7_white_noise_lkc_peak_rss():
    # The peak resident size of a fresh process's own address space (VmHWM).
    # Its ru_maxrss would not do: Linux carries the peak of the forking
    # process, here the test runner, over into the child across exec.
    code = (
        "from surfield.kernel import GaussianKernel\n"
        "from surfield.lattice import make_domain_preset\n"
        "from surfield.lkc import lkc_compute\n"
        "from surfield.manifold import VoxelManifold, refined_grid\n"
        "man = VoxelManifold(make_domain_preset('stat3d', 1.0).interior)\n"
        "grid = refined_grid(man, 7)\n"
        "lkc_compute('white-noise', GaussianKernel.isotropic(2.0, 3), man, 7,\n"
        "            sample_domain=make_domain_preset('stat3d', 2.0), grid=grid)\n"
        "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
    )
    src = str(Path(surfield.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert int(out.stdout.split()[-1]) / 1024 <= 320  # VmHWM is in kB


def _gapped_mask(rng, D):
    """Random voxel subset of a regular lattice with spacing (1, 0.5, 2)[:D]
    and the middle axis-0 row removed, so the boxes form separate slabs.  The
    origin's box and its axis neighbors fix the spacing."""
    n = rng.integers(4, 7, D)
    occ = rng.random(n) < 0.6
    occ[(0,) * D] = True
    occ[tuple(np.eye(D, dtype=int))] = True
    idx = np.argwhere(occ)
    idx = idx[idx[:, 0] != n[0] // 2]
    spacing = np.array([1.0, 0.5, 2.0])[:D]
    return idx, spacing, VoxelSet(idx * spacing + 0.25)


@pytest.mark.parametrize("r", [0, 1, 3])
@pytest.mark.parametrize("D", [1, 2, 3])
def test_grid_tables_match_brute_force(D, r):
    # every table against closed-box membership in coordinates: a point lies
    # in the boxes whose extent holds it, and on j box-boundary planes it
    # has 2^j lattice boxes around it, occupied or not
    rng = np.random.default_rng(100 * D + r)
    idx, spacing, dom = _gapped_mask(rng, D)
    g = refined_grid(VoxelManifold(dom), r)
    h = (r + 1) // 2
    z = np.arange(-h, h + 1) / (r + 1)
    sub = np.stack(np.meshgrid(*([z] * D), indexing="ij"), axis=-1).reshape(-1, D)
    eighths = lambda x: set(map(tuple, np.round(x.reshape(-1, D) * 8).astype(int)))
    expected = eighths(dom.coords[:, None] + sub * spacing)
    assert eighths(g.points) == expected and len(expected) == g.n_points

    holds = np.all(np.abs(g.points[:, None] - dom.coords[None]) <= spacing / 2 + 1e-9, axis=-1)
    u = (g.points - 0.25) / spacing
    planes = np.sum(np.isclose(np.abs(u - np.round(u)), 0.5), axis=1) if r else 0
    np.testing.assert_array_equal(g.vol_weight, holds.sum(axis=1) / 2.0**planes)

    ids = rng.permutation(g.n_points)[: min(g.n_points, 60)]
    owner, boxes = g.incident_boxes(ids)
    want_owner, want_boxes = [], []
    for j, i in enumerate(ids):
        inside = dom.axis_index[holds[i]]
        inside = inside[np.lexsort(inside.T[::-1])]
        want_owner += [j] * len(inside)
        want_boxes.append(inside)
    np.testing.assert_array_equal(owner, want_owner)
    np.testing.assert_array_equal(boxes, np.concatenate(want_boxes))

    assert np.count_nonzero(g.id_map >= 0) == g.n_points
    np.testing.assert_array_equal(g.id_map[tuple((g.keys - g.key_min).T)], np.arange(g.n_points))


@pytest.mark.parametrize("D", [2, 3])
def test_grid_stores_only_keys_per_point(D):
    rng = np.random.default_rng(7 + D)
    _, _, dom = _gapped_mask(rng, D)
    man = VoxelManifold(dom)
    g = refined_grid(man, 3)
    assert g.keys.dtype == np.int32 and g.id_map.dtype == np.int32
    slab = np.sort(rng.choice(np.arange(g.n_points // 4, 3 * g.n_points // 4), 40, replace=False))
    for ids, keys in ((None, g.keys), (slab, g.keys[slab])):
        for d, pos in enumerate(g.axis_positions(ids)):
            np.testing.assert_array_equal(pos, np.searchsorted(g.axis_keys[d], keys[:, d]))

    kern = GaussianKernel.isotropic(2.0, D)
    ens = sample_ensemble(dom, 4, RngSpec(D))
    # on a box, a range of whole axis-0 rows fills the block it contracts,
    # which is the result as is; id arrays and other ranges are taken from it
    box = box_set(*(5,) * D)
    g_box = refined_grid(VoxelManifold(box), 3)
    row_keys = g_box.keys[:, 0]
    rows = np.flatnonzero((row_keys >= g_box.axis_keys[0][3]) & (row_keys <= g_box.axis_keys[0][8]))
    box_sources = (sample_ensemble(box, 4, RngSpec(D)), box.unit_field)
    for grid, ids, sources in ((g, slab, (ens, dom.unit_field)), (g, range(slab[0], slab[-1]), (ens,)),
                               (g_box, range(rows[0], rows[-1] + 1), box_sources), (g_box, rows, box_sources)):
        for source in sources:
            full = _grid_sums(kern, source, grid)
            part = _grid_sums(kern, source, grid, ids=ids)
            for a, b in [((0,) * D, None), ((1,) + (0,) * (D - 1), (0,) * (D - 1) + (1,))]:
                want = full(a, b)[:, ids]
                assert np.array_equal(part(a, b), want)
                for out in (np.empty(want.size), np.empty(2 * want.size)[::2]):
                    assert np.shares_memory(part(a, b, out=out), out) and np.array_equal(out, want.ravel())

    lkc_compute("white-noise", kern, man, 3, sample_domain=dom, grid=g)
    t_field_on_grid(SurfSpec(ens, kern), g)
    per_point = [k for k, v in vars(g).items()
                 if isinstance(v, np.ndarray) and v.shape == (g.n_points, D)]
    assert per_point == ["keys"]


def test_points_derive_from_keys():
    g = refined_grid(VoxelManifold(make_domain_preset("nonstat2d")), 3)
    assert "points" not in vars(g)
    step = g.manifold.domain.spacing / (g.r + 1)
    origin = np.array([c[0] for c in g.axis_coords]) - np.array([k[0] for k in g.axis_keys]) * step
    np.testing.assert_allclose(g.points, origin + g.keys * step, rtol=0, atol=1e-12)
    assert not g.points.flags.writeable


def test_lattice_contained_in_every_grid():
    dom = make_domain_preset("nonstat2d")
    man = VoxelManifold(dom)
    pts = {tuple(c) for c in dom.coords}
    for r in (1, 3):
        g = refined_grid(man, r)
        grid_pts = {tuple(p) for p in g.points}
        assert pts <= grid_pts


def test_r0_is_the_lattice():
    dom = make_domain_preset("nonstat1d")
    g = refined_grid(VoxelManifold(dom), 0)
    assert np.array_equal(np.sort(g.points.ravel()), np.sort(dom.coords.ravel()))


def test_single_cube_census():
    # 2x2x2 cuboid of unit voxels: per-axis 2 sides x 4 unit faces, 4 edges x
    # 2 segments per tangent, 8 corners
    c = classify_boundary(VoxelManifold(box_set(2, 2, 2)))
    assert all(v == 8 for v in c.faces.values())
    for k in range(3):
        assert c.edges[(k, EdgeType.CONVEX)] == 8
        assert c.edges[(k, EdgeType.DOUBLE_CONVEX)] == 0
        assert c.edges[(k, EdgeType.CONCAVE)] == 0
    assert c.vertices == 8


def test_cuboid_census_closed_form():
    n = (3, 4, 5)
    c = classify_boundary(VoxelManifold(box_set(*n)))
    for m in range(3):
        I = tuple(d for d in range(3) if d != m)
        assert c.faces[I] == 2 * n[I[0]] * n[I[1]]
    for k in range(3):
        assert c.edges[(k, EdgeType.CONVEX)] == 4 * n[k]
    assert c.vertices == 8


def test_double_convex_and_concave_edges():
    # two columns of cubes touching along a shared edge: double convex;
    # adding a third column makes it concave
    cols = lambda cells: VoxelSet(
        np.array([[x, y, z] for x, y in cells for z in (0.0, 1.0)])
    )
    dc = classify_boundary(VoxelManifold(cols([(0.0, 0.0), (1.0, 1.0)])))
    assert dc.edges[(2, EdgeType.DOUBLE_CONVEX)] == 2
    assert dc.edges[(2, EdgeType.CONCAVE)] == 0
    cc = classify_boundary(VoxelManifold(cols([(0.0, 0.0), (1.0, 1.0), (1.0, 0.0)])))
    assert cc.edges[(2, EdgeType.CONCAVE)] == 2
    assert cc.edges[(2, EdgeType.DOUBLE_CONVEX)] == 0


def test_census_invariant_under_translation_and_axis_permutation():
    rng = np.random.default_rng(3)
    pts = np.unique(rng.integers(0, 4, size=(30, 3)), axis=0).astype(float)
    man = VoxelManifold(VoxelSet(pts))
    base = classify_boundary(man)
    shifted = classify_boundary(VoxelManifold(VoxelSet(pts + np.array([10.0, -3.0, 2.0]))))
    assert shifted == base
    perm = (2, 0, 1)
    permuted = classify_boundary(VoxelManifold(VoxelSet(pts[:, perm])))
    assert permuted.vertices == base.vertices
    assert sum(permuted.faces.values()) == sum(base.faces.values())
    for k in range(3):
        for t in EdgeType:
            assert permuted.edges[(k, t)] == base.edges[(perm[k], t)]


def test_euler_characteristic_examples():
    assert euler_characteristic(VoxelManifold(box_set(2, 2, 2))) == 1
    two = VoxelSet(np.array([[0.0], [1.0], [10.0]]))
    assert euler_characteristic(VoxelManifold(two)) == 2
    frame = make_domain_preset("nonstat2d")
    assert euler_characteristic(VoxelManifold(frame)) == 0


@pytest.mark.parametrize("D", [2, 3])
def test_euler_characteristic_matches_inclusion_exclusion_oracle(D):
    # independent oracle: chi of a random mask by counting the cells of the
    # cubical complex directly from closed-box membership, in doubled
    # coordinates (an odd coordinate spans a box extent along that axis)
    rng = np.random.default_rng(12)
    size = {2: (6, 25), 3: (4, 34)}[D]
    pts = np.unique(rng.integers(0, size[0], size=(size[1], D)), axis=0)
    man = VoxelManifold(VoxelSet(pts.astype(float)))
    cells = {
        tuple(2 * int(x) + c for x, c in zip(p, off))
        for p in pts
        for off in itertools.product(range(3), repeat=D)
    }
    chi = sum((-1) ** sum(c % 2 for c in cell) for cell in cells)
    assert euler_characteristic(man) == chi


def test_2d_vertex_count_matches_corner_rule():
    # brute force: a lattice corner is a stratification vertex when 1 or 3
    # of its 4 incident squares are present, or 2 diagonal ones
    rng = np.random.default_rng(5)
    pts = np.unique(rng.integers(0, 6, size=(22, 2)), axis=0)
    occ = {tuple(map(int, p)) for p in pts}
    vertices = diagonal = 0
    for x, y in itertools.product(range(-1, 6), repeat=2):
        a, b, c, d = ((x + i, y + j) in occ for i, j in ((0, 0), (1, 0), (0, 1), (1, 1)))
        n = a + b + c + d
        diag = n == 2 and a == d
        diagonal += diag
        vertices += n in (1, 3) or diag
    assert diagonal > 0
    assert classify_boundary(VoxelManifold(VoxelSet(pts.astype(float)))).vertices == vertices


def test_vol_weights_integrate_exactly():
    dom = make_domain_preset("nonstat2d")
    man = VoxelManifold(dom)
    g = refined_grid(man, 3)
    area = g.vol_weight.sum() * np.prod(dom.spacing / 4)
    assert area == pytest.approx(144.0, rel=1e-12)


def test_face_weights_measure_boundary():
    man = VoxelManifold(box_set(2, 2, 2))
    g = refined_grid(man, 1)
    per_axis = [g.face_tables[m]["weights"].sum() * (1.0 / 2) ** 2 for m in range(3)]
    assert per_axis == [pytest.approx(8.0)] * 3  # two 2x2 sides per axis
