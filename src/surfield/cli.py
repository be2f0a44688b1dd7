"""Batch command-line front end.

One subcommand per experiment family: ``lkc`` (curvature tables),
``threshold`` (curvatures + alpha -> rejection level), ``fwer-sim``
(replication study from a config file), ``census`` (boundary strata),
``check-nondegeneracy``, and ``surf eval`` (point evaluation from CSV).
Each subcommand checks its arguments and returns its plan, the resolved
configuration, with a ``run()`` that computes and returns its artifacts as
text keyed by file name, its exit code and a report printer.  ``main`` alone
acts on ``--dry-run`` (print the plan) and ``--out``: it creates the
directory only once ``run()`` has succeeded, writes the artifacts and a
``manifest.json`` embedding the plan and the package version, then prints the
report.  Settings that change no output, such as ``fwer-sim``'s thread count
or an ``lkc`` setting its source does not read, are left out of the plan, so
identical configurations give byte-identical files.  Each setting's rule
lives once, in the library function that reads it, which the CLI asks at plan
time (``_checked``: its error a config error); the CLI only parses its own text.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .fieldio import read_srf1
from .inference import (
    FieldType,
    ThresholdError,
    _check_alpha,
    _fwer_settings,
    fwer_experiment,
    nondegeneracy_check,
    threshold,
)
from .kernel import GaussianKernel
from .lattice import (
    PRESET_NAMES,
    FieldEnsemble,
    RngSpec,
    VoxelSet,
    _check_count,
    make_domain_preset,
    sample_ensemble,
)
from .lkc import _check_curvatures, lkc_compute, lkc_stationary_closed_form
from .manifold import VoxelManifold, _added_resolution, classify_boundary, euler_characteristic
from .surf import SurfSpec, _eval_arrays

_LKC_CSV_HEADER = ["source", "D", "fwhm", "r", "L0", "L1", "L2", "L3"]
_FWER_CSV_HEADER = [
    "preset", "fwhm", "n_subjects", "r_mode", "fwer", "std_error", "eec", "alpha", "n_reps",
]


class ConfigError(ValueError):
    pass


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _checked(check, *args, where: str = "", **kwargs):
    """``check(*args, **kwargs)``, a TypeError or ValueError it raises a config error (after ``where``)."""
    try:
        return check(*args, **kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}{e}") from None


def _load_domain(args) -> tuple[VoxelSet, str, FieldEnsemble | None]:
    """The domain with its label, and the ensemble when read from --fields.

    With both --preset and --fields, the file must hold the preset's voxels.
    """
    ens = read_srf1(args.fields) if getattr(args, "fields", None) else None
    if getattr(args, "preset", None):
        dom = _checked(make_domain_preset, args.preset, getattr(args, "fwhm", None))
        if ens is not None and not np.array_equal(
            np.unique(ens.domain.coords, axis=0), np.unique(dom.coords, axis=0)
        ):
            raise ConfigError(f"{args.fields} does not hold the voxels of preset {args.preset}")
        return dom, args.preset, ens
    if ens is not None:
        return ens.domain, str(args.fields), ens
    raise ConfigError("either --preset or --fields is required")


def _kernel_for(args, D: int) -> GaussianKernel:
    """The kernel of --fwhm and --truncation, its settings refused as a config error."""
    if args.fwhm is None:
        raise ConfigError("--fwhm is required")
    return _checked(GaussianKernel.isotropic, float(args.fwhm), D, getattr(args, "truncation", None))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_lkc(args):
    dom, dom_label, ens = _load_domain(args)
    inner = dom.interior or dom
    man = VoxelManifold(inner)
    D = dom.dimension
    kern = _kernel_for(args, D)
    plan = {"domain": dom_label, "fwhm": args.fwhm, "source": args.source, "format": args.format}
    if args.source != "closed-form":
        _checked(_added_resolution, args.r, "--r", lattice=False)
        plan.update(truncation=args.truncation, r=args.r)
    if args.source == "ensemble" and ens is None:  # sampled from the preset
        _checked(_check_count, "--seed", args.seed, 0)
        _checked(_check_count, "--n-subjects", args.n_subjects, 2)  # lkc_compute's N >= 2
        plan.update(n_subjects=args.n_subjects, seed=args.seed)

    def run():
        if args.source == "white-noise":
            vec = lkc_compute("white-noise", kern, man, args.r, sample_domain=dom)
        elif args.source == "closed-form":
            sides = inner.spacing * np.array([a.size for a in inner.axis_values], dtype=float)
            vec = lkc_stationary_closed_form(sides, float(args.fwhm))
        else:
            src = ens if ens is not None else sample_ensemble(dom, args.n_subjects, RngSpec(args.seed))
            vec = lkc_compute(src, kern, man, args.r)
        row = [vec.source, D, args.fwhm, vec.r if vec.r is not None else ""] + [
            f"{vec.values[d]:.6f}" if d <= D else "" for d in range(4)
        ]
        if args.format == "csv":
            files = {"lkc.csv": _csv([_LKC_CSV_HEADER, row])}
        else:
            files = {"lkc.json": _json(dict(zip(_LKC_CSV_HEADER, row)))}
        return files, 0, lambda out: print(",".join(str(c) for c in row))

    return plan, run


def _cmd_threshold(args):
    lk = [float(x) for x in args.lkcs.split(",")]
    _checked(_check_curvatures, lk, "--lkcs")
    if args.family == "t" or args.df is not None:  # a given --df is a t field's, read or not
        t_type = _checked(FieldType, "t", args.df, where="--family ")
    ftype = t_type if args.family == "t" else FieldType.gaussian()
    _checked(_check_alpha, args.alpha, "--alpha")
    plan = {"lkcs": lk, "family": args.family, "df": args.df, "alpha": args.alpha}

    def run():
        u = threshold(lk, ftype, args.alpha)
        files = {"threshold.json": json.dumps({"u_alpha": u, **plan}, indent=2) + "\n"}
        return files, 0, lambda out: print(f"{u:.8f}")

    return plan, run


_FWER_REQUIRED = ("preset", "fwhm", "n_subjects", "n_reps")
_FWER_DEFAULTS = {"alpha": 0.05, "r_lkc": 1, "seed": 0, "threads": 1}


def _load_fwer_config(path: str, overrides: dict) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path}: invalid JSON at line {e.lineno}: {e.msg}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: must hold a JSON object, got {type(raw).__name__}")
    cfg = {**_FWER_DEFAULTS, **raw, **{k: v for k, v in overrides.items() if v is not None}}
    for key in _FWER_REQUIRED:
        if key not in cfg:
            raise ConfigError(f"config {path}: missing required field {key!r}")
    unknown = set(cfg) - set(_FWER_REQUIRED) - set(_FWER_DEFAULTS)
    if unknown:
        raise ConfigError(f"config {path}: unknown fields {sorted(unknown)}")
    where = f"config {path}: "
    rng = _checked(RngSpec, cfg["seed"], where=where)  # the config names it seed
    _checked(_fwer_settings, *(cfg[key] for key in _FWER_REQUIRED), cfg["alpha"], r_lkc=cfg["r_lkc"],
             rng=rng, threads=cfg["threads"], where=where)
    return cfg


def _cmd_fwer_sim(args):
    cfg = _load_fwer_config(args.config, {"seed": args.seed, "threads": args.threads})
    plan = {k: v for k, v in cfg.items() if k != "threads"}  # threads change no output

    def run():
        rep = fwer_experiment(
            cfg["preset"], float(cfg["fwhm"]), cfg["n_subjects"], cfg["n_reps"], cfg["alpha"],
            r_lkc=cfg["r_lkc"], rng=RngSpec(cfg["seed"]),
            threads=cfg["threads"],
        )
        rows = [_FWER_CSV_HEADER] + [
            [rep.preset, rep.fwhm, rep.n_subjects, mode, res["fwer"], res["std_error"],
             "" if res["eec"] is None else res["eec"], rep.alpha, rep.n_reps]
            for mode, res in rep.modes.items()
        ]
        files = {"fwer_report.json": _json(rep.to_dict()), "fwer_summary.csv": _csv(rows)}

        def report(out):
            for mode, res in rep.modes.items():
                print(f"{mode}: fwer={res['fwer']:.4f} (se {res['std_error']:.4f})")
            if rep.n_failures:
                print(f"{rep.n_failures} replication(s) failed", file=sys.stderr)

        return files, 1 if rep.n_failures else 0, report

    return plan, run


def _cmd_census(args):
    dom, dom_label, _ = _load_domain(args)
    inner = dom.interior or dom
    man = VoxelManifold(inner)

    def run():
        payload = {
            "domain": dom_label,
            "n_voxels": inner.n_voxels,
            "euler_characteristic": euler_characteristic(man),
            **classify_boundary(man).to_dict(),
        }
        return {"census.json": _json(payload)}, 0, lambda out: print(_json(payload), end="")

    return {"domain": dom_label}, run


def _cmd_check_nondegeneracy(args):
    dom, dom_label, _ = _load_domain(args)
    kern = _kernel_for(args, dom.dimension)
    try:
        x = np.array([float(c) for c in args.point.split(",")])
    except ValueError:
        raise ConfigError(f"--point must be comma-separated numbers, got {args.point!r}") from None
    if not np.all(np.isfinite(x)):
        raise ConfigError(f"--point must be finite, got {args.point}")
    if x.size != dom.dimension:
        raise ConfigError("--point dimension does not match the domain")
    plan = {"domain": dom_label, "point": x.tolist(), "fwhm": args.fwhm,
            "truncation": args.truncation}

    def run():
        rep = nondegeneracy_check(kern, dom, x)
        payload = {
            "rank": rep.rank, "required": rep.required, "passed": rep.passed,
            "n_support_voxels": rep.n_support_voxels, "point": x.tolist(), "domain": dom_label,
        }
        files = {"nondegeneracy.json": _json(payload)}
        return files, 0 if rep.passed else 1, lambda out: print(json.dumps(payload, sort_keys=True))

    return plan, run


def _cmd_surf_eval(args):
    ens = read_srf1(args.fields)
    D = ens.domain.dimension
    spec = SurfSpec(ens, _kernel_for(args, D), normalized=args.normalized)
    plan = {"fields": str(args.fields), "points": str(args.points), "order": args.order,
            "fwhm": args.fwhm, "truncation": args.truncation, "normalized": args.normalized}
    pts = []  # read at plan time, so a dry run refuses the file the run would refuse
    with open(args.points, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)  # header
        for row in filter(None, reader):
            try:
                if len(row) < D:
                    raise ValueError(f"{len(row)} coordinate(s) for {D}-D fields")
                pts.append([float(c) for c in row[:D]])
            except ValueError as e:
                raise ConfigError(f"{args.points} line {reader.line_num}: {e}") from None
    if not pts:
        raise ConfigError(f"{args.points} holds no points")
    pts = np.asarray(pts)

    def run():
        vals, grads, _ = _eval_arrays(spec, pts, args.order)
        head = [f"x{d}" for d in range(D)] + [f"value{i}" for i in range(ens.n_fields)]
        if grads is not None:
            head += [f"grad{i}_x{d}" for i in range(ens.n_fields) for d in range(D)]
        rows = [head]
        for p in range(len(pts)):
            row = [repr(float(c)) for c in pts[p]] + [repr(float(v)) for v in vals[:, p]]
            if grads is not None:
                row += [repr(float(g)) for g in grads[:, p, :].ravel()]
            rows.append(row)
        return {"surf_eval.csv": _csv(rows)}, 0, lambda out: print(f"wrote {out / 'surf_eval.csv'}")

    return plan, run


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--dry-run", action="store_true", help="print the resolved plan and exit")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="surfield", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lkc", help="compute curvatures for a preset or field file")
    p.add_argument("--preset", choices=PRESET_NAMES)
    p.add_argument("--fields", help="SRF1 ensemble file")
    p.add_argument("--fwhm", type=float)
    p.add_argument("--truncation", type=float, default=None)
    p.add_argument("--r", type=int, default=1, help="added resolution (odd)")
    p.add_argument("--source", choices=["white-noise", "ensemble", "closed-form"],
                   default="white-noise")
    p.add_argument("--n-subjects", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    _add_common(p)
    p.set_defaults(func=_cmd_lkc)

    p = sub.add_parser("threshold", help="solve the expected-EC threshold")
    p.add_argument("--lkcs", required=True, help="comma-separated L0,...,LD")
    p.add_argument("--family", choices=["gaussian", "t"], default="gaussian")
    p.add_argument("--df", type=float, default=None, help="degrees of freedom for t")
    p.add_argument("--alpha", type=float, default=0.05)
    _add_common(p)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("fwer-sim", help="replication study of attained FWER")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--threads", type=int, default=None,
                   help="override config threads (>= 1); replications run in the calling thread at any count")
    _add_common(p)
    p.set_defaults(func=_cmd_fwer_sim)

    p = sub.add_parser("census", help="boundary stratum census of a domain")
    p.add_argument("--preset", choices=PRESET_NAMES)
    p.add_argument("--fields")
    p.add_argument("--fwhm", type=float, help="needed by stationary presets")
    _add_common(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("check-nondegeneracy", help="kernel-derivative rank diagnostic")
    p.add_argument("--preset", choices=PRESET_NAMES)
    p.add_argument("--fields")
    p.add_argument("--fwhm", type=float, required=True)
    p.add_argument("--truncation", type=float, default=None)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    _add_common(p)
    p.set_defaults(func=_cmd_check_nondegeneracy)

    p = sub.add_parser("surf", help="smoothed-field operations")
    ssub = p.add_subparsers(dest="surf_command", required=True)
    pe = ssub.add_parser("eval", help="evaluate smoothed fields at CSV points")
    pe.add_argument("--fields", required=True, help="SRF1 ensemble file")
    pe.add_argument("--points", required=True, help="CSV of query points")
    pe.add_argument("--fwhm", type=float, required=True)
    pe.add_argument("--truncation", type=float, default=None)
    pe.add_argument("--order", choices=["value", "gradient"], default="value")
    pe.add_argument("--normalized", action="store_true")
    _add_common(pe)
    pe.set_defaults(func=_cmd_surf_eval)

    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--lkcs" in argv[:-1]:  # joined, a negative L0 is not read as an option
        i = argv.index("--lkcs")
        argv[i:i + 2] = [f"--lkcs={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        plan, run = args.func(args)
        if args.dry_run:
            print(json.dumps({"plan": plan}, indent=2))
            return 0
        files, code, report = run()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        command = " ".join(filter(None, (args.command, getattr(args, "surf_command", None))))
        manifest = {"command": command, "version": __version__, "config": plan,
                    "outputs": list(files)}
        for name, text in {**files, "manifest.json": _json(manifest)}.items():
            (out / name).write_text(text, newline="")
        report(out)
        return code
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ThresholdError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
