"""Dump the numbers a refactor of the replication path must hold, and
compare two dumps.

    PYTHONPATH=<src> OPENBLAS_NUM_THREADS=1 python scripts/bitcheck.py dump OUT.npz
    python scripts/bitcheck.py compare BEFORE.npz AFTER.npz

``dump`` records criterion 4's two FWER runs (2 x 500 replications,
per-replication details), the benchmark's calling pattern (20 one-replication
``fwer_experiment`` calls back to back in this process, FWHM 3 and 1
alternating, so that most reuse a cached run context) and Gaussian-family
thresholds for D = 1..3, a small stat3d FWER run, a small FWER run on the
ragged nonstat3d shell (``fwer_nonstat3d_*``; both LKC grids have several
slabs) and a stat2d run at ``r_lkc = 3`` (``fwer_stat2d_r3_*``: its LKC grid
is not the scan grid, so its t grid is contracted on its own), each at 1 and
2 threads, every CLI subcommand's artifacts, stdout, stderr and exit code
(``cli_runs``; ``fwer-sim`` at 1 and 3 threads, failing runs included),
white-noise and ensemble LKCs (keys ``lkc_*_face0_*``, named as when an
optional face term was dumped beside them; each LKC record ``<key>`` with its
PSD repair count as ``<key>_repairs``, so a change of the repair set shows), 50-subject ensemble LKCs at r = 1
(the nonstat3d shell, the stat3d and stat2d boxes), whose slabs are bounded by
their subject x point entries, the white-noise LKCs of the benchmark's ``wn_theory_3d`` workload (the stat3d box
at r = 7, FWHM 1, 1.5, ..., 4, each over its padded domain), the slab bounds
(``lkc._slabs``, keys ``slabs_*``) of the LKC grids of criterion 4, of the
50-subject and the stat3d FWER LKCs and of the r = 7 box, so that a change
of partition, and so of summation order, shows as its own difference, the
smoothed fields, the t field, the LKCs and the geometry at points
(untruncated and truncated) and on a grid, the normalized fields, and numpy's
OpenBLAS thread count before and after all of it (``blas_threads``).  After
the other records it runs the shell, stat3d and stat2d 50-subject LKCs and
the r = 7 FWHM-4 white-noise LKC again back to back (keys ``warm_*``), their
slab workspaces reused and grown by every call before them.
``compare`` requires every array to be bit-identical, except the normalized
gradient and Hessian (keys ``norm_*``), which may move by 1e-14 of their
largest magnitude, and the continuous suprema (keys ``*_sup_inf``), which may
move, each differing replication listed with its index and both values, as
long as none falls by more than ``SUP_INF_FALL`` and no indicator
``sup_inf > u_hat`` (each dump's own ``u_hat``) flips; within each dump it
requires every ``fwer-sim`` record, manifest included, to be the same at 1
and 3 threads, the stat3d, nonstat3d and stat2d r = 3 runs to be the same at 1
and 2 threads, every ``warm_<key>`` to equal ``<key>``, and the BLAS thread
count after to equal the count before.  A dump made at
``OPENBLAS_NUM_THREADS=1`` and one made at the default compare equal too.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

NORM_TOL = 1e-14
SUP_INF_FALL = 1e-12


def blas_threads() -> int:
    """numpy's bundled OpenBLAS thread count, read through ctypes; -1 where
    that library is missing."""
    import ctypes

    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"))
    return int(ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_()) if libs else -1


def cli_runs(tmp: Path) -> dict[str, np.ndarray]:
    """Per CLI run ``name``: ``cli_<name>_<file>`` for each file it writes
    (``manifest.json`` included), ``cli_<name>_stdout``, ``_stderr`` and
    ``_code``, and ``cli_<name>_files``, the sorted names under its --out
    (``<no --out>`` when it made none); the scratch path reads ``<tmp>``."""
    from surfield.cli import main
    from surfield.fieldio import write_srf1
    from surfield.lattice import RngSpec, make_domain_preset, sample_ensemble

    cfg, srf, pts = tmp / "cfg.json", tmp / "f.srf1", tmp / "pts.csv"
    cfg.write_text(json.dumps({"preset": "nonstat2d", "fwhm": 2.0, "n_subjects": 12,
                               "n_reps": 8, "alpha": 0.1, "seed": 3}))
    write_srf1(srf, sample_ensemble(make_domain_preset("nonstat2d"), 6, RngSpec(2)))
    pts.write_text("x0,x1\n5.25,6.5\n10.75,3.5\n2.5,11.25\n")
    fields = ["--fields", str(srf), "--fwhm", "2"]
    surf = ["surf", "eval", *fields, "--points", str(pts)]
    runs = {
        "lkc_csv": ["lkc", "--preset", "nonstat2d", "--fwhm", "2", "--r", "3"],
        "lkc_json": ["lkc", *fields, "--source", "ensemble", "--r", "3", "--format", "json"],
        "lkc_csv_trunc": ["lkc", "--preset", "nonstat2d", "--fwhm", "2", "--r", "3", "--truncation", "6"],
        "lkc_json_trunc": ["lkc", *fields, "--source", "ensemble", "--r", "3", "--format", "json",
                           "--truncation", "6"],
        "lkc_closed": ["lkc", "--preset", "stat2d", "--fwhm", "3", "--source", "closed-form"],
        "lkc_nan": ["lkc", "--preset", "nonstat2d", "--fwhm", "nan"],
        "threshold": ["threshold", "--lkcs", "-1,20,100", "--family", "t", "--df", "40"],
        "threshold_none": ["threshold", "--lkcs", "0,0,0", "--family", "t", "--df", "40"],
        "fwer_threads1": ["fwer-sim", "--config", str(cfg), "--threads", "1"],
        "fwer_threads3": ["fwer-sim", "--config", str(cfg), "--threads", "3"],
        "census": ["census", "--preset", "nonstat3d"],
        "nondegeneracy": ["check-nondegeneracy", "--preset", "nonstat2d", "--fwhm", "2",
                          "--truncation", "6", "--point", "3.5,4.25"],
        "eval_value": surf,
        "eval_gradient": [*surf, "--order", "gradient"],
        "eval_value_norm": [*surf, "--normalized"],
        "eval_gradient_norm": [*surf, "--order", "gradient", "--normalized", "--truncation", "6"],
        "eval_fail": ["surf", "eval", *fields, "--points", str(tmp / "far.csv"),
                      "--normalized", "--truncation", "2"],
    }
    (tmp / "far.csv").write_text("x0,x1\n200,200\n")
    rec: dict[str, np.ndarray] = {}
    for name, argv in runs.items():
        o = tmp / name
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rec[f"cli_{name}_code"] = np.array(main([*argv, "--out", str(o)]))
        files = sorted(f.name for f in o.iterdir()) if o.exists() else []
        texts = {f: (o / f).read_bytes().decode() for f in files}
        texts.update(files=" ".join(files) if o.exists() else "<no --out>",
                     stdout=stdout.getvalue(), stderr=stderr.getvalue())
        for key, text in texts.items():
            rec[f"cli_{name}_{key}"] = np.array(text.replace(str(tmp), "<tmp>"))
    return rec


def dump(path: str) -> None:
    from surfield.geometry import metric, metric_on_grid
    from surfield.inference import FieldType, fwer_experiment, threshold
    from surfield.kernel import GaussianKernel
    from surfield.lattice import RngSpec, make_domain_preset, sample_ensemble
    from surfield.lkc import _slabs, lkc_compute
    from surfield.manifold import VoxelManifold, refined_grid
    from surfield.surf import SurfSpec, smooth_on_grid, surf_eval, t_field, t_field_on_grid

    out: dict[str, np.ndarray] = {}

    def lkc(key: str, *args, **kwargs) -> None:
        """``lkc_compute``'s values as ``key`` and its PSD repair count as ``<key>_repairs``."""
        vec = lkc_compute(*args, **kwargs)
        out[key], out[f"{key}_repairs"] = np.array(vec.values), np.array(vec.diagnostics["psd_repaired_points"])

    before = blas_threads()
    for fwhm, seed in ((3.0, 20260810), (1.0, 20260811)):
        rep = fwer_experiment("stat2d", fwhm, 50, 500, 0.05, rng=RngSpec(seed), keep_details=True)
        for name, arr in rep.details.items():
            out[f"fwer{fwhm:g}_{name}"] = arr
        out[f"fwer{fwhm:g}_report"] = np.array(json.dumps(rep.to_dict(), sort_keys=True))
    calls = [fwer_experiment("stat2d", (3.0, 1.0)[i % 2], 50, 1, rng=RngSpec(300 + i), keep_details=True)
             for i in range(20)]
    for name in calls[0].details:
        out[f"fwer_pattern_{name}"] = np.concatenate([rep.details[name] for rep in calls])
    out["threshold_gaussian"] = np.array([
        threshold([L0, *(40.0, 300.0, 2000.0)[:D]], FieldType.gaussian(), alpha)
        for D in (1, 2, 3) for L0 in (1.0, 0.0, -1.0) for alpha in (0.05, 0.01)])
    out["slabs_stat2d_r1_n50"] = _slabs(refined_grid(VoxelManifold(make_domain_preset("stat2d", 3.0).interior), 1), 50)
    out["slabs_stat3d_r1_n8"] = _slabs(refined_grid(VoxelManifold(make_domain_preset("stat3d", 3.0).interior), 1), 8)
    for tag, preset, fwhm, n_subjects, n_reps, r_lkc in (("fwer3d", "stat3d", 3.0, 8, 2, 1),
                                                         ("fwer_nonstat3d", "nonstat3d", 3.0, 20, 3, 1),
                                                         ("fwer_stat2d_r3", "stat2d", 1.0, 20, 3, 3)):
        for threads in (1, 2):
            rep = fwer_experiment(preset, fwhm, n_subjects, n_reps, 0.05, r_lkc=r_lkc, rng=RngSpec(4),
                                  threads=threads, keep_details=True)
            for name, arr in rep.details.items():
                out[f"{tag}_threads{threads}_{name}"] = arr
            out[f"{tag}_threads{threads}_report"] = np.array(json.dumps(rep.to_dict(), sort_keys=True))

    with tempfile.TemporaryDirectory() as tmp:
        out.update(cli_runs(Path(tmp)))

    for preset, fwhm, r, n in (("stat2d", 3.0, 3, 20), ("stat3d", 3.0, 7, 5), ("nonstat1d", 2.0, 3, 20),
                               ("nonstat2d", 2.0, 3, 20), ("nonstat3d", 2.0, 3, 20)):
        dom = make_domain_preset(preset, fwhm if preset.startswith("stat") else None)
        man = VoxelManifold(dom.interior or dom)
        kern = GaussianKernel.isotropic(fwhm, dom.dimension)
        grid = refined_grid(man, r)
        ens = sample_ensemble(dom, n, RngSpec(11))
        lkc(f"lkc_{preset}_face0_wn", "white-noise", kern, man, r, sample_domain=dom, grid=grid)
        lkc(f"lkc_{preset}_face0_ens", ens, kern, man, r, grid=grid)
        del grid

    # 50-subject ensemble LKCs at r = 1 whose slabs are bounded by their entries:
    # the nonstat3d shell of the benchmark's CLI workload, the stat3d and stat2d boxes;
    # ``again`` keeps the calls the warm sequence below repeats
    again = {}
    for preset in ("nonstat3d", "stat3d", "stat2d"):
        dom = make_domain_preset(preset, None if preset == "nonstat3d" else 3.0)
        man, kern = VoxelManifold(dom.interior or dom), GaussianKernel.isotropic(3.0, dom.dimension)
        ens = sample_ensemble(dom, 50, RngSpec(12))
        grid = refined_grid(man, 1)
        out[f"slabs_{preset}_r1_n50"] = _slabs(grid, 50)
        lkc(f"lkc_{preset}_n50_r1_face0_ens", ens, kern, man, 1, grid=grid)
        again[f"lkc_{preset}_n50_r1_face0_ens"] = (ens, kern, man, 1, {"grid": grid})

    man = VoxelManifold(make_domain_preset("stat3d", 1.0).interior)
    grid = refined_grid(man, 7)
    out["slabs_stat3d_r7_n1"] = _slabs(grid, 1)
    for fwhm in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0):
        dom = make_domain_preset("stat3d", fwhm)
        lkc(f"wn3d_r7_fwhm{fwhm:g}", "white-noise", GaussianKernel.isotropic(fwhm, 3), man, 7, sample_domain=dom,
            grid=grid)
    again["wn3d_r7_fwhm4"] = ("white-noise", GaussianKernel.isotropic(4.0, 3), man, 7, {"sample_domain": dom})
    del grid

    for preset, trunc in (("nonstat2d", None), ("nonstat3d", None), ("nonstat2d", 6.0)):
        dom = make_domain_preset(preset)
        D = dom.dimension
        kern = GaussianKernel.isotropic(2.0, D, trunc)
        ens = sample_ensemble(dom, 8, RngSpec(5))
        draw = np.random.default_rng(9)
        pts = dom.coords[draw.integers(dom.n_voxels, size=60)] + draw.uniform(-0.5, 0.5, (60, D))
        tag = f"{preset}_trunc{trunc}"
        for source in ("white-noise", ens):
            s = "wn" if isinstance(source, str) else "ens"
            lkc(f"lkc_{tag}_{s}", source, kern, VoxelManifold(dom), 3, sample_domain=dom)
        for order in ("value", "gradient", "hessian"):
            out[f"eval_{tag}_{order}"] = surf_eval(SurfSpec(ens, kern), pts, order)
            out[f"norm_{tag}_{order}"] = surf_eval(SurfSpec(ens, kern, normalized=True), pts, order)
        out[f"t_{tag}"] = t_field(SurfSpec(ens, kern), pts, "value")
        out[f"gt_{tag}"] = t_field(SurfSpec(ens, kern), pts, "gradient")
        for source in ("white-noise", ens):
            s = "wn" if isinstance(source, str) else "ens"
            out[f"metric_{tag}_{s}"] = metric(source, kern, dom, pts)
        if trunc is None:
            grid = refined_grid(VoxelManifold(dom), 1)
            for key, arr in smooth_on_grid(ens, kern, grid, derivatives=2).items():
                out[f"grid_{tag}_{key}"] = arr
            out[f"grid_{tag}_t"] = t_field_on_grid(SurfSpec(ens, kern), grid)
            ids = np.arange(0, grid.n_points, 3)
            for source in ("white-noise", ens):
                s = "wn" if isinstance(source, str) else "ens"
                out[f"grid_{tag}_metric_{s}"] = metric_on_grid(source, kern, grid, dom, ids)
    # the same LKCs back to back, in slab workspaces that every call above has grown
    for key, (source, kern, man, r, kwargs) in again.items():
        lkc(f"warm_{key}", source, kern, man, r, **kwargs)
    out["blas_threads"] = np.array([before, blas_threads()])
    np.savez(path, **out)
    print(f"wrote {len(out)} arrays to {path}")


def differences(x: np.ndarray, y: np.ndarray) -> str:
    """How two numeric arrays differ: their dtypes or shapes, else the count
    of differing elements and the largest absolute and relative difference."""
    if x.dtype != y.dtype or x.shape != y.shape:
        return f"{x.dtype}{list(x.shape)} and {y.dtype}{list(y.shape)}"
    x, y = x.astype(np.float64), y.astype(np.float64)
    differ = (x != y) & ~(np.isnan(x) & np.isnan(y))
    if not differ.any():
        return "values equal"
    with np.errstate(invalid="ignore"):
        diff = np.abs(x - y)[differ]
        rel = diff / np.maximum(np.abs(x), np.abs(y))[differ]
    return (f"{np.count_nonzero(differ)} of {x.size} elements differ, "
            f"max abs {np.nanmax(diff):.3e}, max rel {np.nanmax(rel):.3e}")


def sup_inf_moves(key: str, x: np.ndarray, y: np.ndarray, u_x: np.ndarray, u_y: np.ndarray) -> bool:
    """Print every replication whose continuous supremum moved, with its index
    and both values; whether none fell by more than ``SUP_INF_FALL`` and no
    exceedance of the replication's threshold flipped."""
    moved = np.nonzero(x != y)[0]
    fall = x - y
    flips = (x > u_x) != (y > u_y)
    ok = not (np.any(fall > SUP_INF_FALL) or np.any(flips))
    print(f"{'moved' if ok else 'DIFF'} {key}: {len(moved)} of {x.size} replications, "
          f"largest fall {max(float(fall.max()), 0.0):.2e}, {np.count_nonzero(flips)} exceedance(s) flipped")
    for i in moved:
        print(f"  replication {i}: {float(x[i])!r} -> {float(y[i])!r} ({y[i] - x[i]:+.2e})"
              + (" FLIPPED" if flips[i] else ""))
    return ok


def compare(before: str, after: str) -> int:
    a, b = np.load(before), np.load(after)
    bad = sorted(set(a.files) ^ set(b.files))
    for key in bad:
        print(f"MISSING {key}")
    for key in sorted(set(a.files) & set(b.files) - {"blas_threads"}):  # checked within each dump
        x, y = a[key], b[key]
        if x.dtype.kind == "U":
            ok = x.shape == y.shape and bool(np.all(x == y))
            print(f"{'same' if ok else 'DIFF'} {key}")
        elif key.endswith("_sup_inf") and x.shape == y.shape and not np.array_equal(x, y):
            u_hat = key[:-len("sup_inf")] + "u_hat"
            ok = sup_inf_moves(key, x, y, a[u_hat], b[u_hat])
        elif key.startswith("norm_") and not key.endswith("_value"):
            scale = float(np.max(np.abs(x)))
            drift = float(np.max(np.abs(x - y))) / scale
            ok = x.dtype == y.dtype and drift <= NORM_TOL
            print(f"{'within' if ok else 'DIFF'} {key}: drift {drift:.2e} of max |x|"
                  + ("" if ok else f"; {differences(x, y)}"))
        else:
            ok = x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True)
            print(f"same {key}" if ok else f"DIFF {key}: {differences(x, y)}")
        bad += [] if ok else [key]
    for name, dump_ in ((before, a), (after, b)):  # no record may depend on the threads
        for key in (k for k in dump_.files if k.startswith("cli_fwer_threads1_")):
            other = key.replace("threads1", "threads3", 1)
            if other not in dump_.files or str(dump_[key]) != str(dump_[other]):
                print(f"DIFF {name}: fwer-sim {key[len('cli_fwer_threads1_'):]} at 1 and 3 threads")
                bad.append("threads")
        for key in (k for k in dump_.files
                    if k.startswith(("fwer3d_threads1_", "fwer_nonstat3d_threads1_", "fwer_stat2d_r3_threads1_"))):
            other = key.replace("threads1", "threads2", 1)
            if other not in dump_.files or not np.array_equal(dump_[key], dump_[other]):
                print(f"DIFF {name}: FWER {key.replace('_threads1_', ' ', 1)} at 1 and 2 threads")
                bad.append("threads")
        for key in (k for k in dump_.files if k.startswith("warm_")):  # reused workspaces move no bit
            cold = key[len("warm_"):]
            if cold not in dump_.files or not np.array_equal(dump_[key], dump_[cold]):
                print(f"DIFF {name}: {key} and its first call")
                bad.append("warm")
        if "blas_threads" in dump_.files and dump_["blas_threads"][0] != dump_["blas_threads"][1]:
            print(f"DIFF {name}: BLAS threads {dump_['blas_threads'][0]} before, {dump_['blas_threads'][1]} after")
            bad.append("blas")
    print(f"{len(bad)} difference(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
