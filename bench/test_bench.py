"""Tests of the benchmark's own checks, inputs and tracing.

Run from the repository root:  python3 -m pytest bench
"""
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bench import checks, inputs  # noqa: E402
from bench.tracing import Tracer  # noqa: E402
from surfield import cli, fieldio, inference, lkc  # noqa: E402
from surfield.lattice import RngSpec  # noqa: E402


def _replication(master: int, fwhm: float) -> dict:
    rep = inference.fwer_experiment("stat2d", fwhm, 50, 1, 0.05, rng=RngSpec(master),
                                    keep_details=True)
    out = {k: float(v[0]) for k, v in rep.details.items()}
    out["fwhm"] = fwhm
    return out


@pytest.fixture(scope="module")
def fwhm3_rep():
    rep = _replication(4242, 3.0)
    return rep, checks.stat2d_suprema(4242, 3.0, 50)


def test_theory_threshold_matches_published_value():
    u = checks.solve_threshold((1.0,) + checks.THEORY_D2_FWHM3, 49, 0.05)
    assert abs(u - 3.9125) < 1e-4


def test_fwer_check_passes_program_output_and_rejects_perturbed_sup1(fwhm3_rep):
    rep, ref = fwhm3_rep
    u_ref = checks.solve_threshold((1.0,) + checks.THEORY_D2_FWHM3, 49, 0.05)
    assert checks.check_fwer_rep(rep, ref, u_ref) == []
    assert checks.check_fwer_rep({**rep, "sup1": rep["sup1"] + 1e-6}, ref, u_ref)
    assert checks.check_fwer_rep({**rep, "sup0": rep["sup1"] + 1e-6}, ref, u_ref)
    assert checks.check_fwer_rep({**rep, "u_hat": u_ref + 2 * checks.U_HAT_TOL}, ref, u_ref)


def test_rinf_limit_is_the_binomial_quantile():
    assert checks.rinf_limit(60, 0.05) == 9
    assert checks.rinf_limit(1, 0.05) == 1


def test_cli_check_rejects_shifted_threshold_and_wrong_l0():
    lkcs = [2.0, 10.873247, 579.552685, 373.055676]
    u = inference.threshold(lkcs, inference.FieldType.student_t(49), 0.05)
    assert checks.check_cli_op(lkcs, round(u, 8), 49, 0.05) == []
    assert checks.check_cli_op(lkcs, u + 1e-4, 49, 0.05)
    for l0 in (1.0, 3.0):
        assert checks.check_cli_op([l0] + lkcs[1:], u, 49, 0.05)


@pytest.mark.parametrize("fwhm", inputs.WN_FWHMS)
def test_wn_check_rejects_scaled_l2_and_wrong_l0(fwhm):
    table = [1.0] + list(checks.THEORY_D3[fwhm])
    assert checks.check_wn(fwhm, table) == []
    assert checks.check_wn(fwhm, [1.0, table[1], table[2] * 1.02, table[3]])
    assert checks.check_wn(fwhm, [2.0] + table[1:])


def test_closed_form_matches_the_program():
    for fwhm in inputs.WN_FWHMS:
        ours = checks.closed_form_box((20.0, 20.0, 20.0), fwhm)
        theirs = lkc.lkc_stationary_closed_form([20.0, 20.0, 20.0], fwhm).values
        np.testing.assert_allclose(ours, theirs, rtol=1e-12)


def test_unbiasedness_z_rejects_scaled_l2():
    wn = [2.0, 10.87, 579.55, 373.06]
    rng = np.random.default_rng(0)
    est = np.array(wn) + rng.normal(0.0, [0.0, 0.5, 6.0, 5.0], size=(24, 4))
    assert np.all(np.abs(checks.unbiasedness_z(est, wn)) <= checks.Z_MAX)
    est[:, 2] *= 1.02
    assert abs(checks.unbiasedness_z(est, wn)[1]) > checks.Z_MAX


def test_srf1_inputs_read_back_through_the_program(tmp_path):
    coords = inputs.nonstat3d_shell()
    values = inputs.cli_ensemble(5, 0)
    inputs.write_srf1(tmp_path / "e.srf1", coords, values)
    ens = fieldio.read_srf1(tmp_path / "e.srf1")
    np.testing.assert_array_equal(ens.domain.coords, coords)
    np.testing.assert_array_equal(ens.values, values)
    assert len(coords) == 8000 - 16**3


def test_inputs_repeat_for_a_seed_and_differ_between_seeds():
    assert inputs.fwer_master_seeds(3) == inputs.fwer_master_seeds(3)
    assert inputs.fwer_master_seeds(3) != inputs.fwer_master_seeds(4)
    np.testing.assert_array_equal(inputs.cli_ensemble(3, 1), inputs.cli_ensemble(3, 1))
    assert sorted(inputs.wn_order(10)) == sorted(inputs.WN_FWHMS)


def test_self_times_add_up_to_span_totals():
    tr = Tracer()

    def leaf():
        time.sleep(0.002)

    def mid():
        time.sleep(0.001)
        leaf_t()
        leaf_t()

    leaf_t = tr.wrap("x.leaf", leaf)
    root = tr.wrap("x.root", tr.wrap("x.mid", mid))
    root()
    root()
    self_s = tr.self_times()
    assert math.isclose(self_s.sum(), tr.root_total(), rel_tol=1e-12)
    assert np.all(self_s >= 0)
    assert tr.parent == [-1, 0, 1, 1, -1, 4, 5, 5]


def _traced_cli_op(tmp_path, tag):
    path = tmp_path / "e.srf1"
    if not path.exists():
        inputs.write_srf1(path, inputs.nonstat3d_shell(), inputs.cli_ensemble(1, 0))
    tr = Tracer()
    tr.phase = "ops"
    tr.install()
    try:
        rc = cli.main(["lkc", "--fields", str(path), "--fwhm", "3", "--source", "ensemble",
                       "--r", "1", "--out", str(tmp_path / tag)])
    finally:
        tr.uninstall()
    assert rc == 0
    return tr


def test_trace_installs_and_restores_and_counts_repeat(tmp_path):
    main_before = cli.main
    read_before = cli.read_srf1
    first = _traced_cli_op(tmp_path, "a")
    assert cli.main is main_before and cli.read_srf1 is read_before
    second = _traced_cli_op(tmp_path, "b")
    assert first.names == second.names
    assert dict(first.counters) == dict(second.counters)
    assert math.isclose(first.self_times().sum(), first.root_total(), rel_tol=1e-12)
    m = first.layer_metrics(1)
    assert m["fieldio.read_srf1.calls"][0] == 2
    assert m["manifold.euler_characteristic.calls"][0] == 1
    assert m["cli.main.self_ms"][0] > 0
    assert m["manifold.refined_grid.points"][0] > 0
