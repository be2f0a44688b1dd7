import contextlib
import csv
import io
import json
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surfield.cli import main
from surfield.fieldio import read_csv, write_srf1
from surfield.inference import _fwer_settings
from surfield.lattice import PRESET_NAMES, FieldEnsemble, RngSpec, VoxelSet, make_domain_preset, sample_ensemble


def read_lkc_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


def test_lkc_white_noise_reference(tmp_path):
    out = tmp_path / "o"
    rc = main([
        "lkc", "--preset", "stat1d", "--fwhm", "3", "--source", "white-noise",
        "--r", "11", "--out", str(out),
    ])
    assert rc == 0
    rows = read_lkc_csv(out / "lkc.csv")
    assert len(rows) == 1
    assert abs(float(rows[0]["L1"]) - 55.50) / 55.50 < 0.005
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "lkc"
    assert manifest["config"]["fwhm"] == 3.0
    assert "version" in manifest


def test_manifest_records_truncation(tmp_path):
    manifests = []
    for name, extra in (("plain", []), ("truncated", ["--truncation", "2"])):
        out = tmp_path / name
        rc = main(["lkc", "--preset", "stat1d", "--fwhm", "3", "--r", "3", "--out", str(out)] + extra)
        assert rc == 0
        manifests.append((out / "manifest.json").read_text())
    assert manifests[0] != manifests[1]
    assert json.loads(manifests[1])["config"]["truncation"] == 2.0


def test_lkc_closed_form(tmp_path):
    out = tmp_path / "o"
    rc = main([
        "lkc", "--preset", "stat2d", "--fwhm", "2", "--source", "closed-form",
        "--out", str(out),
    ])
    assert rc == 0
    rows = read_lkc_csv(out / "lkc.csv")
    assert float(rows[0]["L2"]) == pytest.approx(277.26, rel=1e-4)


def test_lkc_requires_domain(tmp_path):
    rc = main(["lkc", "--fwhm", "2", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_threshold_cli(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["threshold", "--lkcs", "1,0,0,0", "--alpha", "0.025", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    assert abs(float(printed) - 1.959964) < 1e-5
    payload = json.loads((out / "threshold.json").read_text())
    assert payload["u_alpha"] == pytest.approx(1.959964, abs=1e-5)
    # a negative L0 (an Euler characteristic) after a space is a value, not an option
    levels = []
    for lkcs in (["--lkcs", "-1,20,100"], ["--lkcs=-1,20,100"]):
        assert main(["threshold", *lkcs, "--out", str(tmp_path / "n")]) == 0
        levels.append(capsys.readouterr().out)
    assert levels[0] == levels[1]


def test_census_cli(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["census", "--preset", "nonstat2d", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "census.json").read_text())
    assert payload["euler_characteristic"] == 0
    assert payload["n_voxels"] == 144


def test_check_nondegeneracy_cli(tmp_path):
    rc = main([
        "check-nondegeneracy", "--preset", "stat1d", "--fwhm", "2",
        "--point", "50", "--out", str(tmp_path / "o"),
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "o" / "nondegeneracy.json").read_text())
    assert payload["passed"] and payload["rank"] == 3


def test_fwer_sim_cli_and_determinism(tmp_path):
    cfg = {
        "preset": "nonstat1d", "fwhm": 2.0, "n_subjects": 12, "n_reps": 8,
        "alpha": 0.1, "seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["fwer-sim", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["fwer-sim", "--config", str(cfg_path), "--threads", "3", "--out", str(out2)]) == 0
    for name in ("fwer_report.json", "manifest.json"):  # threads change no output
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 3
    with open(out1 / "fwer_summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["r_mode"] for r in rows] == ["r0", "r1", "rinf"]
    f = [float(r["fwer"]) for r in rows]
    assert f[0] <= f[1] <= f[2]


def test_fwer_sim_config_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"preset": "stat2d", "fwhm": 2.0}))
    assert main(["fwer-sim", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    bad.write_text(json.dumps({"preset": "stat2d", "fwhm": 2.0, "n_subjects": 5,
                               "n_reps": 2, "bogus": 1}))
    assert main(["fwer-sim", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    bad.write_text("{not json")
    assert main(["fwer-sim", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    bad.write_text(json.dumps({"preset": "stat2d", "fwhm": 2.0, "n_subjects": 5,
                               "n_reps": 2, "r_scan": 1}))
    assert main(["fwer-sim", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    for threads in (0, -3):
        bad.write_text(json.dumps({"preset": "stat2d", "fwhm": 2.0, "n_subjects": 5,
                                   "n_reps": 2, "threads": threads}))
        assert main(["fwer-sim", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    bad.write_text(json.dumps({"preset": "stat2d", "fwhm": 2.0, "n_subjects": 5, "n_reps": 2}))
    assert main(["fwer-sim", "--config", str(bad), "--threads", "0", "--out", str(tmp_path / "o")]) == 2
    # JSON booleans are ints to isinstance; no numeric field takes one
    base = {"preset": "stat2d", "fwhm": 2.0, "n_subjects": 5, "n_reps": 2}
    for key in ("fwhm", "n_subjects", "n_reps", "alpha", "r_lkc", "seed", "threads"):
        bad.write_text(json.dumps(dict(base, **{key: True})))
        assert main(["fwer-sim", "--config", str(bad), "--dry-run"]) == 2, key
    bad.write_text(json.dumps(dict(base, n_subjects=True, n_reps=True, threads=True)))
    assert main(["fwer-sim", "--config", str(bad), "--dry-run"]) == 2
    # JSON reads Infinity and NaN as floats
    for key, value in (("fwhm", math.inf), ("fwhm", math.nan), ("fwhm", 0.0), ("fwhm", -2.0),
                       ("alpha", math.nan), ("alpha", 0.0), ("alpha", 1.0), ("alpha", -0.1)):
        bad.write_text(json.dumps(dict(base, **{key: value})))
        assert main(["fwer-sim", "--config", str(bad), "--dry-run"]) == 2, (key, value)
        assert main(["fwer-sim", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2, (key, value)
    bad.write_text(json.dumps(base))
    assert main(["fwer-sim", "--config", str(bad), "--dry-run"]) == 0


@pytest.mark.parametrize("text, kind", [("42", "int"), ("null", "NoneType"), ("[1, 2]", "list"), ('"x"', "str")])
@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
def test_fwer_sim_refuses_a_config_that_is_not_an_object(tmp_path, capsys, text, kind, dry_run):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["fwer-sim", "--config", str(cfg), "--out", str(tmp_path / "o"), *dry_run]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: config {cfg}: must hold a JSON object, got {kind}\n"
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6) | st.integers(-2**70, 2**70)
    | st.sampled_from([0, 1, 2, 3, -1, 0.05, 0.5, 1e308, -1e308, 1e6, math.inf, -math.inf, math.nan])
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
_FWER_CONFIGS = st.builds(  # a valid config, up to two fields set to any JSON value, one perhaps dropped
    lambda cfg, changed, dropped: {k: v for k, v in (cfg | changed).items() if k not in dropped},
    st.fixed_dictionaries(
        {"preset": st.sampled_from(PRESET_NAMES), "fwhm": st.sampled_from([1.0, 3.0, 1e3]),
         "n_subjects": st.integers(2, 60), "n_reps": st.integers(1, 9)},
        optional={"alpha": st.floats(1e-3, 0.5), "r_lkc": st.sampled_from([1, 3, 5]),
                  "seed": st.integers(0, 2**70), "threads": st.integers(1, 4)}),
    st.dictionaries(st.sampled_from(["preset", "fwhm", "n_subjects", "n_reps", "alpha", "r_lkc", "seed",
                                     "threads", "bogus"]), _JSON_VALUES, max_size=2),
    st.sampled_from([()] * 12 + [(key,) for key in ("preset", "fwhm", "n_subjects", "n_reps")]),
)


@settings(max_examples=80, deadline=None)
@given(_FWER_CONFIGS | _JSON_VALUES)
def test_fwer_sim_dry_run_property(config):
    # any JSON config: a plan (exit 0) that passes fwer_experiment's own check, or a config
    # error (exit 2); never a traceback, never an output directory
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "o"
        path.write_text(json.dumps(config))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(["fwer-sim", "--config", str(path), "--out", str(out), "--dry-run"])
        assert not out.exists()
    assert rc in (0, 2), stderr.getvalue()
    if rc == 2:
        assert stderr.getvalue().startswith("config error: config ") and stdout.getvalue() == ""
        return
    plan = json.loads(stdout.getvalue())["plan"]
    _fwer_settings(plan["preset"], plan["fwhm"], plan["n_subjects"], plan["n_reps"], plan["alpha"],
                   r_lkc=plan["r_lkc"], rng=plan["seed"], threads=1)


@pytest.mark.parametrize("case", ["short_header", "huge_voxel_count", "cut_values", "version", "dimension"])
def test_lkc_rejects_malformed_srf1(tmp_path, capsys, case):
    path = tmp_path / "bad.srf1"
    if case == "short_header":
        path.write_bytes(b"SRF1" + bytes(6))
    elif case == "huge_voxel_count":
        path.write_bytes(b"SRF1" + struct.pack("<HBQ", 1, 3, 1 << 40) + bytes(64))
    elif case in ("version", "dimension"):
        version, D = (2, 1) if case == "version" else (1, 4)
        path.write_bytes(b"SRF1" + struct.pack("<HBQ", version, D, 2) + bytes(64))
    else:
        good = tmp_path / "good.srf1"
        write_srf1(good, sample_ensemble(make_domain_preset("nonstat1d"), 3, RngSpec(0)))
        path.write_bytes(good.read_bytes()[:-100])
    rc = main(["lkc", "--fields", str(path), "--fwhm", "3", "--source", "ensemble",
               "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith({"version": "error: unsupported SRF1 version 2",
                           "dimension": "error: SRF1 dimension must be 1..3, got 4"}.get(case, "error:"))
    assert "Traceback" not in err


def test_lkc_fields_must_match_preset(tmp_path, capsys):
    bad, good = tmp_path / "bad.srf1", tmp_path / "good.srf1"
    write_srf1(bad, sample_ensemble(make_domain_preset("nonstat2d"), 5, RngSpec(1)))
    ens = sample_ensemble(make_domain_preset("stat2d", 3.0), 5, RngSpec(1))
    perm = np.random.default_rng(0).permutation(ens.domain.n_voxels)  # same set, other order
    write_srf1(good, FieldEnsemble(VoxelSet(ens.domain.coords[perm]), ens.values[:, perm]))
    args = ["lkc", "--preset", "stat2d", "--fwhm", "3", "--source", "ensemble"]
    assert main(args + ["--fields", str(bad), "--out", str(tmp_path / "b")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert main(args + ["--fields", str(good), "--out", str(tmp_path / "g")]) == 0


def test_lkc_subject_constant_fields_rejected(tmp_path, capsys):
    dom = make_domain_preset("nonstat3d")
    x = np.random.default_rng(3).standard_normal(dom.n_voxels)
    path = tmp_path / "const.srf1"
    write_srf1(path, FieldEnsemble(dom, np.tile(x, (5, 1))))
    rc = main(["lkc", "--fields", str(path), "--fwhm", "3", "--source", "ensemble",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: zero sample variance at an evaluation point\n"


@pytest.mark.parametrize("command", ["fwer-sim", "census", "check-nondegeneracy", "surf eval",
                                     "lkc", "threshold"])
def test_fwer_sim_dry_run(tmp_path, capsys, command):
    # --dry-run writes nothing and prints the plan the real run's manifest records
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "stat2d", "fwhm": 3.0, "n_subjects": 10, "n_reps": 4}))
    srf, pts = tmp_path / "f.srf1", tmp_path / "pts.csv"
    write_srf1(srf, sample_ensemble(VoxelSet(np.arange(0.0, 10.0)[:, None]), 2, RngSpec(1)))
    pts.write_text("x0\n2.25\n")
    argv = {
        "fwer-sim": ["fwer-sim", "--config", str(cfg)],
        "census": ["census", "--preset", "nonstat2d"],
        "check-nondegeneracy": ["check-nondegeneracy", "--preset", "nonstat2d", "--fwhm", "3",
                                "--point", "5,5"],
        "surf eval": ["surf", "eval", "--fields", str(srf), "--points", str(pts), "--fwhm", "2"],
        "lkc": ["lkc", "--preset", "nonstat2d", "--fwhm", "3", "--truncation", "6"],
        "threshold": ["threshold", "--lkcs", "-1,20,100", "--family", "t", "--df", "40"],
    }[command]
    out = tmp_path / "o"
    rc = main(argv + ["--dry-run", "--out", str(out)])
    assert rc == 0
    plan = json.loads(capsys.readouterr().out)["plan"]
    if command == "fwer-sim":
        assert plan["alpha"] == 0.05
    assert not out.exists()
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["config"] == plan


def test_failed_surf_eval_leaves_no_out(tmp_path, capsys):
    srf, pts = tmp_path / "f.srf1", tmp_path / "pts.csv"
    write_srf1(srf, sample_ensemble(make_domain_preset("nonstat2d"), 4, RngSpec(2)))
    pts.write_text("x0,x1\n200,200\n")  # beyond the truncation radius of every voxel
    out = tmp_path / "o"
    rc = main(["surf", "eval", "--fields", str(srf), "--points", str(pts), "--fwhm", "2",
               "--normalized", "--truncation", "2", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: vanishing field variance at an evaluation point\n"
    assert not out.exists()


def test_threshold_t_family_requires_df(tmp_path, capsys):
    rc = main(["threshold", "--lkcs", "1,20,100", "--family", "t", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        "config error: --family t requires finite degrees of freedom nu >= 1, got None")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra, message", [
    (["--fwhm", "nan"], "error: fwhm must be positive and finite"),
    (["--fwhm", "inf"], "error: fwhm must be positive and finite"),
    (["--fwhm", "3", "--truncation", "nan"], "error: truncation radius must be positive and finite"),
])
def test_lkc_rejects_non_finite_kernel(tmp_path, capsys, extra, message):
    # the kernel's own message, as a config error
    rc = main(["lkc", "--preset", "nonstat2d", *extra, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config {message}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["lkc", "census"])
@pytest.mark.parametrize("fwhm", [None, "nan", "inf", "0", "-2"])
def test_stationary_preset_rejects_bad_fwhm(tmp_path, capsys, command, fwhm):
    extra = [] if fwhm is None else [f"--fwhm={fwhm}"]
    rc = main([command, "--preset", "stat2d", *extra, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: stationary presets require a finite positive fwhm, got")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("lkcs, df, message", [
    ("1,nan,100", "49", "config error: --lkcs must be finite"),
    ("1,20,inf", "49", "config error: --lkcs must be finite"),
    ("1,20,100", "nan", "config error: --family t requires finite degrees of freedom nu >= 1, got nan"),
    # LkcVector's rule at the top nonzero L_D: L_D > 0 and, for D >= 2, L_(D-1) > 0
    *[(lkcs, "40", "config error: --lkcs needs L_D > 0")
      for lkcs in ("1,-1e9,100", "1,20,-100", "1,0,100", "1,-5", "-1")],
])
def test_threshold_rejects_non_finite_input(tmp_path, capsys, lkcs, df, message):
    rc = main(["threshold", f"--lkcs={lkcs}", "--family", "t", "--df", df, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, message", [
    (["threshold", "--lkcs", "1,20,100", "--alpha", alpha], "config error: --alpha must lie in (0, 1)")
    for alpha in ("2", "0", "1", "-0.1", "nan")
] + [
    (["threshold", "--lkcs", "1,20,100", "--family", "t", "--df", df],
     f"config error: --family t requires finite degrees of freedom nu >= 1, got {float(df)}")
    for df in ("0.5", "0", "-3")
] + [
    (["lkc", "--preset", "stat2d", "--fwhm", "3", "--r", r, *source], "config error: --r must be odd and positive")
    for r in ("2", "0", "-1") for source in ([], ["--source", "ensemble", "--n-subjects", "5"])
] + [
    (["lkc", "--preset", "stat2d", "--fwhm", "3", "--source", "ensemble", *extra], message)
    for extra, message in ((["--seed", "-1"], "config error: --seed must be >= 0, got -1"),
                           (["--n-subjects", "1"], "config error: --n-subjects must be >= 2, got 1"))
] + [
    (["fwer-sim", "--config", fields, *extra], f"config error: config {{cfg}}: {message}")
    for fields, extra, message in (
        ({"seed": -1}, [], "seed must be >= 0, got -1"),
        ({}, ["--seed", "-2"], "seed must be >= 0, got -2"),
        ({"n_subjects": 1}, [], "n_subjects must be >= 2, got 1"),
        ({"n_reps": 0}, [], "n_reps must be >= 1, got 0"),
        ({"r_lkc": 0}, [], "r_lkc must be odd and positive, got 0"),
        ({"r_lkc": -3}, [], "r_lkc must be odd and positive, got -3"),
        ({"r_lkc": 2}, [], "r_lkc must be odd and positive, got 2"),
    )
] + [  # kernel settings, refused before any run builds the kernel
    (["lkc", "--preset", "nonstat3d", "--fwhm", "-1"], "config error: fwhm must be positive and finite"),
    (["lkc", "--preset", "nonstat3d", "--fwhm", "nan"], "config error: fwhm must be positive and finite"),
    (["lkc", "--preset", "nonstat3d", "--fwhm", "3", "--truncation", "-2"],
     "config error: truncation radius must be positive and finite"),
    (["check-nondegeneracy", "--preset", "nonstat2d", "--fwhm", "0", "--point", "5,5"],
     "config error: fwhm must be positive and finite"),
    (["surf", "eval", "--fields", "{srf}", "--points", "{pts}", "--fwhm", "-1"],
     "config error: fwhm must be positive and finite"),
] + [  # a given --df is a t field's, read or not
    (["threshold", "--lkcs", "1,20,100", *family, "--df", df],
     f"config error: --family t requires finite degrees of freedom nu >= 1, got {float(df)}")
    for family, df in (([], "0.5"), ([], "nan"), (["--family", "t"], "inf"))
] + [  # the padded box of a stationary preset, refused before it is allocated
    ([command, "--preset", preset, "--fwhm", fwhm, *extra],
     f"config error: fwhm {float(fwhm)} pads the {preset} box to more than 134,217,728 voxels")
    for command, extra in (("lkc", []), ("census", []), ("check-nondegeneracy", ["--point", "5,5,5"]))
    for preset, fwhm in (("stat2d", "1e6"), ("stat3d", "1e3"), ("stat3d", "1e308"))
] + [
    (["fwer-sim", "--config", fields], f"config error: config {{cfg}}: {message}")
    for fields, message in (
        ({"preset": "stat4d"}, "unknown preset 'stat4d'; expected one of"),
        ({"preset": ["stat2d"]}, "unknown preset ['stat2d']; expected one of"),
        ({"preset": "stat2d", "fwhm": 1e6}, "fwhm 1000000.0 pads the stat2d box to more than 134,217,728 voxels"),
        ({"preset": "stat2d", "fwhm": 1e308}, "fwhm 1e+308 pads the stat2d box to more than 134,217,728 voxels"),
    )
])
@pytest.mark.parametrize("dry_run", [False, True])
def test_cli_refuses_bad_settings_at_plan_time(tmp_path, capsys, argv, message, dry_run):
    # a config error, as a dry run shows it: nothing written; a dict in argv is
    # the fields a small fwer-sim config file changes, "{srf}" and "{pts}" a
    # small field file and its points
    cfg, srf, pts = tmp_path / "cfg.json", tmp_path / "f.srf1", tmp_path / "pts.csv"
    for fields in (a for a in argv if isinstance(a, dict)):
        cfg.write_text(json.dumps({"preset": "nonstat1d", "fwhm": 2.0, "n_subjects": 5, "n_reps": 2} | fields))
    write_srf1(srf, sample_ensemble(VoxelSet(np.arange(0.0, 10.0)[:, None]), 2, RngSpec(1)))
    pts.write_text("x0\n2.25\n")
    argv = [str(cfg) if isinstance(a, dict) else a.format(srf=srf, pts=pts) for a in argv]
    message = message.format(cfg=cfg)
    rc = main([*argv, "--out", str(tmp_path / "o"), *(["--dry-run"] if dry_run else [])])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and captured.out == ""
    assert not (tmp_path / "o").exists()


def test_cli_keeps_settings_at_their_bounds(tmp_path):
    # closed-form curvatures read no --r; the bounds themselves are accepted
    for argv in (["lkc", "--preset", "stat2d", "--fwhm", "3", "--source", "closed-form", "--r", "2"],
                 ["threshold", "--lkcs", "1", "--family", "t", "--df", "1"]):
        assert main([*argv, "--out", str(tmp_path / argv[0])]) == 0


@pytest.mark.parametrize("point, message", [
    ("nan,3", "config error: --point must be finite"),
    ("inf,3", "config error: --point must be finite"),
    ("3,-inf", "config error: --point must be finite"),
    ("x,3", "config error: --point must be comma-separated numbers"),
    ("3,", "config error: --point must be comma-separated numbers"),
    ("3,3,3", "config error: --point dimension does not match the domain"),
])
def test_check_nondegeneracy_rejects_bad_point(tmp_path, capsys, point, message):
    rc = main(["check-nondegeneracy", "--preset", "nonstat2d", "--fwhm", "3", f"--point={point}",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "o").exists()


def test_threshold_without_crossing_is_an_error(tmp_path, capsys):
    rc = main(["threshold", "--lkcs", "0,0,0", "--family", "t", "--df", "40", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: no level with expected EC")
    assert not (tmp_path / "o").exists()


def test_surf_eval_cli(tmp_path):
    dom = VoxelSet(np.arange(0.0, 10.0)[:, None])
    ens = sample_ensemble(dom, 2, RngSpec(1))
    srf = tmp_path / "f.srf1"
    write_srf1(srf, ens)
    pts = tmp_path / "pts.csv"
    pts.write_text("x0\n2.25\n7.5\n")
    out = tmp_path / "o"
    rc = main([
        "surf", "eval", "--fields", str(srf), "--points", str(pts),
        "--fwhm", "2", "--order", "gradient", "--out", str(out),
    ])
    assert rc == 0
    with open(out / "surf_eval.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    from surfield.kernel import GaussianKernel
    from surfield.surf import SurfSpec, surf_eval

    want = surf_eval(SurfSpec(ens, GaussianKernel.isotropic(2.0, 1)), [[2.25]], field=0)
    assert float(rows[0]["value0"]) == pytest.approx(want[0], rel=1e-12)


@pytest.mark.parametrize("points, message", [
    ("x0,x1\n2.0,3.0\n1.0\n", "pts.csv line 3: 1 coordinate(s) for 2-D fields"),
    ("x0,x1\n2.0,3.0\n\n1.0,a\n", "pts.csv line 4: could not convert string to float: 'a'"),
    ("x0,x1\n", "pts.csv holds no points"),
    ("", "pts.csv holds no points"),
])
def test_surf_eval_rejects_bad_points(tmp_path, capsys, points, message):
    # the points file is read at plan time: a dry run refuses it as the run does, nothing written
    dom = VoxelSet(np.argwhere(np.ones((5, 5))).astype(float))
    srf, pts = tmp_path / "f.srf1", tmp_path / "pts.csv"
    write_srf1(srf, sample_ensemble(dom, 2, RngSpec(1)))
    pts.write_text(points)
    out = tmp_path / "o"
    for dry_run in ([], ["--dry-run"]):
        rc = main(["surf", "eval", "--fields", str(srf), "--points", str(pts), "--fwhm", "2",
                   "--out", str(out), *dry_run])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and message in captured.err and captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("x0,x1,value0\n0,0,1\n1,0\n", "f.csv line 3: 2 values for 3 columns"),
    ("x0,x1,value0\n0,0,1,2\n", "f.csv line 2: 4 values for 3 columns"),
    ("x0,x1,value0\n0,0,1\n\n1,b,2\n", "f.csv line 4: could not convert string to float: 'b'"),
])
def test_read_csv_names_file_and_line_of_bad_row(tmp_path, text, message):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(message)):
        read_csv(path)


def test_lkc_plans_only_what_its_source_reads(tmp_path, capsys):
    # a seed or subject count samples nothing for a white-noise source, and
    # closed-form curvatures read no --r or --truncation: neither reaches the manifest
    outs = []
    for seed in ("5", "6"):
        out = tmp_path / f"seed{seed}"
        assert main(["lkc", "--preset", "stat2d", "--fwhm", "3", "--seed", seed, "--n-subjects", seed,
                     "--out", str(out)]) == 0
        outs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert sorted(outs[0]) == ["lkc.csv", "manifest.json"] and outs[0] == outs[1]
    capsys.readouterr()
    assert main(["lkc", "--preset", "stat2d", "--fwhm", "3", "--source", "closed-form", "--r", "4",
                 "--truncation", "6", "--dry-run"]) == 0
    assert json.loads(capsys.readouterr().out)["plan"] == {
        "domain": "stat2d", "fwhm": 3.0, "source": "closed-form", "format": "csv"}
    assert main(["lkc", "--preset", "stat2d", "--fwhm", "3", "--source", "ensemble", "--seed", "5",
                 "--n-subjects", "4", "--dry-run"]) == 0
    plan = json.loads(capsys.readouterr().out)["plan"]
    assert (plan["seed"], plan["n_subjects"], plan["r"]) == (5, 4, 1)


def test_cli_identical_runs_identical_files(tmp_path):
    args = ["lkc", "--preset", "stat1d", "--fwhm", "2", "--source", "ensemble",
            "--n-subjects", "8", "--seed", "11", "--r", "3"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "lkc.csv").read_bytes() == (tmp_path / "b" / "lkc.csv").read_bytes()


def test_lkc_json_format(tmp_path):
    out = tmp_path / "o"
    rc = main([
        "lkc", "--preset", "stat1d", "--fwhm", "4", "--source", "closed-form",
        "--format", "json", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "lkc.json").read_text())
    assert float(payload["L1"]) == pytest.approx(41.63, rel=1e-4)
    assert not (out / "lkc.csv").exists()
