import math

import numpy as np
import pytest

from surfield.fieldio import read_csv, read_srf1, write_csv, write_srf1
from surfield.lattice import (
    PRESET_NAMES,
    RngSpec,
    VoxelSet,
    make_domain_preset,
    sample_ensemble,
)


def brute_force_preset(name: str, fwhm: float | None):
    """Independent enumeration of the preset definitions."""
    if name.startswith("stat"):
        a = math.sqrt(2) * fwhm / math.sqrt(math.log(2))
        L = 100 if name.endswith("1d") else 20
        D = int(name[4])
        axis = [v for v in range(-1000, 1000) if 1 - a <= v <= L + a]
        pts = {(v,) for v in axis} if D == 1 else None
        if D == 2:
            pts = {(u, v) for u in axis for v in axis}
        if D == 3:
            pts = {(u, v, w) for u in axis for v in axis for w in axis}
        return pts
    if name == "nonstat1d":
        excluded = {2, 4, 8, 9, 11, 15, 20, 21, 22} | set(range(40, 46)) | {60, 62, 64, 65} | {98, 99, 100}
        return {(v,) for v in range(1, 101) if v not in excluded}
    rim = {1, 2, 19, 20}
    if name == "nonstat2d":
        return {(u, v) for u in range(1, 21) for v in range(1, 21) if u in rim or v in rim}
    return {
        (u, v, w)
        for u in range(1, 21)
        for v in range(1, 21)
        for w in range(1, 21)
        if u in rim or v in rim or w in rim
    }


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_match_brute_force(name):
    fwhm = 3.0 if name.startswith("stat") else None
    dom = make_domain_preset(name, fwhm)
    got = {tuple(c) for c in dom.coords}
    assert got == brute_force_preset(name, fwhm)


def test_preset_interiors():
    dom = make_domain_preset("stat2d", 3.0)
    assert dom.interior is not None
    assert dom.interior.n_voxels == 400
    assert {tuple(c) for c in dom.interior.coords} == {
        (float(u), float(v)) for u in range(1, 21) for v in range(1, 21)
    }
    assert make_domain_preset("nonstat2d").interior is None
    assert make_domain_preset("nonstat2d").n_voxels == 144
    assert make_domain_preset("nonstat1d").n_voxels == 78


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        make_domain_preset("statXd", 2.0)


@pytest.mark.parametrize("fwhm", [math.inf, math.nan, -1.0, 0.0, None])
def test_stationary_preset_needs_finite_positive_fwhm(fwhm):
    with pytest.raises(ValueError, match="finite positive fwhm"):
        make_domain_preset("stat2d", fwhm)


def test_dense_embedding_is_cached_read_only_and_zero_off_the_set():
    dom = make_domain_preset("nonstat2d")
    ens = sample_ensemble(dom, 3, RngSpec(4))
    want = np.zeros((len(dom.axis_values[0]), len(dom.axis_values[1]), 3))
    for v, c in enumerate(dom.coords):
        want[tuple(np.searchsorted(a, x) for a, x in zip(dom.axis_values, c))] = ens.values[:, v]
    assert np.array_equal(ens.dense, want)
    assert ens.dense is ens.dense and not ens.dense.flags.writeable
    unit = dom.unit_field
    assert unit is dom.unit_field and unit.domain is dom
    assert unit.values.shape == (1, dom.n_voxels) and np.all(unit.values == 1.0)


def test_spacing_is_min_positive_gap_and_idempotent():
    vs = VoxelSet(np.array([[0.0, 0.0], [1.5, 0.0], [4.5, 2.0]]))
    assert np.allclose(vs.spacing, [1.5, 2.0])
    again = VoxelSet(vs.coords.copy())
    assert np.allclose(again.spacing, vs.spacing)


def test_voxelset_validation():
    with pytest.raises(ValueError):
        VoxelSet(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        VoxelSet(np.array([[0.0], [0.0]]))
    with pytest.raises(ValueError):
        VoxelSet(np.array([[0.0, 1.0], [1.0, 1.0]]))  # axis 1 constant


@pytest.mark.parametrize("rows", [
    [[0.0, 1.0, 2.0], [3.0, 1.0, 0.0], [1.0, 2.0, 0.0], [3.0, 1.0, 0.0]],  # one repeated row, apart
    [[1.0, 0.0, 2.0], [2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [1.0, -0.0, 2.0]],  # +0.0 and -0.0
    [[0.0, -0.0, 1.0], [1.0, 1.0, 1.0], [-0.0, 0.0, 1.0], [2.0, 2.0, 0.0], [1.0, 1.0, 1.0]],
])
def test_voxelset_rejects_repeated_coordinates(rows):
    coords = np.array(rows)
    with pytest.raises(ValueError, match="coords must be distinct"):
        VoxelSet(coords)
    # every axis has two values, so without the repeat the set is valid
    VoxelSet(np.unique(coords + 0.0, axis=0))


def test_ensemble_determinism_and_streams():
    dom = make_domain_preset("nonstat1d")
    a = sample_ensemble(dom, 5, RngSpec(42, 3))
    b = sample_ensemble(dom, 5, RngSpec(42, 3))
    assert a.values.tobytes() == b.values.tobytes()
    c = sample_ensemble(dom, 5, RngSpec(42, 4))
    assert a.values.tobytes() != c.values.tobytes()


@pytest.mark.parametrize("args, error, message", [
    ((True,), TypeError, "seed must be an integer, got True"),
    ((7.0,), TypeError, "seed must be an integer, got 7.0"),
    (("7",), TypeError, "seed must be an integer, got '7'"),
    ((7, False), TypeError, "stream must be an integer, got False"),
    ((7, 1.5), TypeError, "stream must be an integer, got 1.5"),
    ((-1,), ValueError, "seed must be non-negative, got -1"),
    ((7, -1), ValueError, "stream index must be non-negative"),
])
def test_rng_spec_refuses_bad_seeds_and_streams(args, error, message):
    with pytest.raises(error, match=message):
        RngSpec(*args)


def test_rng_spec_takes_numpy_integers():
    dom = make_domain_preset("nonstat1d")
    spec = RngSpec(np.int64(42), np.int32(3))
    assert type(spec.seed) is int and type(spec.stream) is int and spec == RngSpec(42, 3)
    assert np.array_equal(sample_ensemble(dom, 3, spec).values, sample_ensemble(dom, 3, RngSpec(42, 3)).values)


def test_ensemble_moments():
    # 100 voxels x 10000 fields: pooled mean within 4/sqrt(1e6), variance within 1%
    dom = VoxelSet(np.arange(100.0)[:, None])
    ens = sample_ensemble(dom, 10_000, RngSpec(2024))
    n_tot = ens.values.size
    assert abs(ens.values.mean()) < 4.0 / math.sqrt(n_tot)
    assert abs(ens.values.var() - 1.0) < 0.01
    shifted = sample_ensemble(dom, 10_000, RngSpec(2024), signal=np.full(100, 5.0))
    assert abs(shifted.values.mean() - 5.0) < 4.0 / math.sqrt(n_tot)


def test_signal_length_mismatch():
    dom = VoxelSet(np.arange(10.0)[:, None])
    with pytest.raises(ValueError):
        sample_ensemble(dom, 2, RngSpec(0), signal=np.ones(9))


def test_srf1_roundtrip(tmp_path):
    dom = make_domain_preset("nonstat2d")
    ens = sample_ensemble(dom, 3, RngSpec(5))
    path = tmp_path / "f.srf1"
    write_srf1(path, ens)
    back = read_srf1(path)
    assert back.values.tobytes() == ens.values.tobytes()
    assert back.domain.coords.tobytes() == dom.coords.tobytes()


def test_srf1_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.srf1"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        read_srf1(path)


def test_csv_roundtrip(tmp_path):
    dom = VoxelSet(np.array([[0.0, 0.5], [1.25, 0.5], [0.0, 2.5]]))
    ens = sample_ensemble(dom, 2, RngSpec(9))
    path = tmp_path / "f.csv"
    write_csv(path, ens)
    back = read_csv(path)
    assert np.array_equal(back.values, ens.values)
    assert np.array_equal(back.domain.coords, dom.coords)


@pytest.mark.parametrize("text", ["x0,x1,f0\n", "x0,x1,f0\n\n"])
def test_csv_without_data_rows_rejected(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="no data rows"):
        read_csv(path)
