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
identical configurations give byte-identical files.  A bad kernel setting is a
config error at plan time, as every other bad setting is.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .fieldio import read_srf1
from .inference import (
    FieldType,
    ThresholdError,
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
    make_domain_preset,
    sample_ensemble,
)
from .lkc import lkc_compute, lkc_stationary_closed_form
from .manifold import VoxelManifold, classify_boundary, euler_characteristic
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


def _load_domain(args) -> tuple[VoxelSet, str, FieldEnsemble | None]:
    """The domain with its label, and the ensemble when read from --fields.

    With both --preset and --fields, the file must hold the preset's voxels.
    """
    ens = read_srf1(args.fields) if getattr(args, "fields", None) else None
    if getattr(args, "preset", None):
        needs_f = args.preset.startswith("stat")
        fwhm = getattr(args, "fwhm", None)
        if needs_f and not (fwhm is not None and 0 < fwhm < np.inf):
            raise ConfigError(f"stationary presets require a positive, finite --fwhm, got {fwhm}")
        dom = make_domain_preset(args.preset, fwhm if needs_f else None)
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
    try:
        return GaussianKernel.isotropic(float(args.fwhm), D, getattr(args, "truncation", None))
    except ValueError as e:
        raise ConfigError(str(e)) from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_lkc(args):
    dom, dom_label, ens = _load_domain(args)
    inner = dom.interior or dom
    man = VoxelManifold(inner)
    D = dom.dimension
    kern = _kernel_for(args, D)
    if args.source != "closed-form" and (args.r < 1 or args.r % 2 == 0):
        raise ConfigError(f"--r must be odd and positive, got {args.r}")
    plan = {"domain": dom_label, "fwhm": args.fwhm, "source": args.source, "format": args.format}
    if args.source != "closed-form":
        plan.update(truncation=args.truncation, r=args.r)
    if args.source == "ensemble" and ens is None:  # sampled from the preset
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if args.n_subjects < 2:
            raise ConfigError(f"--n-subjects must be >= 2, got {args.n_subjects}")
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
    if not np.all(np.isfinite(lk)):
        raise ConfigError(f"--lkcs must be finite, got {args.lkcs}")
    # LkcVector's rule at the top nonzero L_D (trailing zeros: a lower-dimensional set)
    D = max((d for d, v in enumerate(lk) if v != 0), default=0)
    if lk[D] < 0 or (D >= 2 and lk[D - 1] <= 0):
        raise ConfigError(f"--lkcs needs L_D > 0 and, for D >= 2, L_(D-1) > 0, got {args.lkcs}")
    if args.family == "t" and args.df is None:
        raise ConfigError("--family t requires --df")
    if args.df is not None and not np.isfinite(args.df):
        raise ConfigError(f"--df must be finite, got {args.df}")
    if args.family == "t" and args.df < 1:
        raise ConfigError(f"--family t requires --df >= 1, got {args.df}")
    if not 0 < args.alpha < 1:  # NaN fails too
        raise ConfigError(f"--alpha must lie in (0, 1), got {args.alpha}")
    ftype = FieldType.gaussian() if args.family == "gaussian" else FieldType.student_t(args.df)
    plan = {"lkcs": lk, "family": args.family, "df": args.df, "alpha": args.alpha}

    def run():
        u = threshold(lk, ftype, args.alpha)
        files = {"threshold.json": json.dumps({"u_alpha": u, **plan}, indent=2) + "\n"}
        return files, 0, lambda out: print(f"{u:.8f}")

    return plan, run


_FWER_SCHEMA = {
    "preset": str, "fwhm": (int, float), "n_subjects": int, "n_reps": int,
    "alpha": (int, float), "r_lkc": int, "seed": int, "threads": int,
}
_FWER_DEFAULTS = {"alpha": 0.05, "r_lkc": 1, "seed": 0, "threads": 1}


def _load_fwer_config(path: str, overrides: dict) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path}: invalid JSON at line {e.lineno}: {e.msg}")
    cfg = dict(_FWER_DEFAULTS)
    cfg.update(raw)
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    for key in ("preset", "fwhm", "n_subjects", "n_reps"):
        if key not in cfg:
            raise ConfigError(f"config {path}: missing required field {key!r}")
    for key, typ in _FWER_SCHEMA.items():  # JSON true/false are ints to isinstance
        if key in cfg and (isinstance(cfg[key], bool) or not isinstance(cfg[key], typ)):
            raise ConfigError(f"config {path}: field {key!r} must be {typ}")
    unknown = set(cfg) - set(_FWER_SCHEMA)
    if unknown:
        raise ConfigError(f"config {path}: unknown fields {sorted(unknown)}")
    if cfg["preset"] not in PRESET_NAMES:
        raise ConfigError(f"config {path}: preset must be one of {PRESET_NAMES}")
    for key, least in (("seed", 0), ("n_subjects", 2), ("n_reps", 1), ("r_lkc", 1), ("threads", 1)):
        if cfg[key] < least:
            raise ConfigError(f"config {path}: {key} must be >= {least}, got {cfg[key]}")
    if cfg["r_lkc"] % 2 == 0:
        raise ConfigError(f"config {path}: r_lkc must be odd, got {cfg['r_lkc']}")
    if not 0 < cfg["fwhm"] < math.inf:  # JSON reads Infinity and NaN
        raise ConfigError(f"config {path}: fwhm must be finite and positive, got {cfg['fwhm']}")
    if not 0 < cfg["alpha"] < 1:
        raise ConfigError(f"config {path}: alpha must lie in (0, 1), got {cfg['alpha']}")
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

    def run():
        pts = []
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
