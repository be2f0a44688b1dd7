"""Batch command-line front end.

One subcommand per experiment family: ``lkc`` (curvature tables),
``threshold`` (curvatures + alpha -> rejection level), ``fwer-sim``
(replication study from a config file), ``census`` (boundary strata),
``check-nondegeneracy``, and ``surf eval`` (point evaluation from CSV).
Every run writes its artifacts plus a JSON manifest embedding the resolved
configuration, the package version, and the seed, so outputs are exactly
reproducible.
"""
from __future__ import annotations

import argparse
import csv
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


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, config: dict, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "outputs": outputs,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_domain(args) -> tuple[VoxelSet, str, FieldEnsemble | None]:
    """The domain with its label, and the ensemble when read from --fields.

    With both --preset and --fields, the file must hold the preset's voxels.
    """
    ens = read_srf1(args.fields) if getattr(args, "fields", None) else None
    if getattr(args, "preset", None):
        if args.preset not in PRESET_NAMES:
            raise ConfigError(f"preset must be one of {PRESET_NAMES}")
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
    fwhm = args.fwhm
    if fwhm is None:
        raise ConfigError("--fwhm is required")
    return GaussianKernel.isotropic(float(fwhm), D, getattr(args, "truncation", None))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_lkc(args) -> int:
    dom, dom_label, ens = _load_domain(args)
    inner = dom.interior or dom
    man = VoxelManifold(inner)
    D = dom.dimension
    kern = _kernel_for(args, D)
    config = {
        "domain": dom_label, "fwhm": args.fwhm, "truncation": args.truncation, "r": args.r,
        "source": args.source, "n_subjects": args.n_subjects, "seed": args.seed,
        "format": args.format,
    }
    if args.dry_run:
        print(json.dumps({"plan": config}, indent=2))
        return 0
    if args.source == "white-noise":
        vec = lkc_compute("white-noise", kern, man, args.r, sample_domain=dom)
    elif args.source == "closed-form":
        sides = inner.spacing * (
            np.array([a.size for a in inner.axis_values], dtype=float)
        )
        vec = lkc_stationary_closed_form(sides, float(args.fwhm))
    else:
        if ens is None:
            ens = sample_ensemble(dom, args.n_subjects, RngSpec(args.seed))
        vec = lkc_compute(ens, kern, man, args.r)
    out = _out_dir(args)
    row = [vec.source, D, args.fwhm, vec.r if vec.r is not None else ""] + [
        f"{vec.values[d]:.6f}" if d <= D else "" for d in range(4)
    ]
    outputs = []
    if args.format == "csv":
        with open(out / "lkc.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(_LKC_CSV_HEADER)
            w.writerow(row)
        outputs.append("lkc.csv")
    else:
        payload = dict(zip(_LKC_CSV_HEADER, row))
        (out / "lkc.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        outputs.append("lkc.json")
    _write_manifest(out, "lkc", config, outputs)
    print(",".join(str(c) for c in row))
    return 0


def _cmd_threshold(args) -> int:
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
    ftype = FieldType.gaussian() if args.family == "gaussian" else FieldType.student_t(args.df)
    config = {"lkcs": lk, "family": args.family, "df": args.df, "alpha": args.alpha}
    if args.dry_run:
        print(json.dumps({"plan": config}, indent=2))
        return 0
    u = threshold(lk, ftype, args.alpha)
    out = _out_dir(args)
    (out / "threshold.json").write_text(json.dumps({"u_alpha": u, **config}, indent=2) + "\n")
    _write_manifest(out, "threshold", config, ["threshold.json"])
    print(f"{u:.8f}")
    return 0


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
    if cfg["threads"] < 1:
        raise ConfigError(f"config {path}: threads must be >= 1, got {cfg['threads']}")
    if not 0 < cfg["fwhm"] < math.inf:  # JSON reads Infinity and NaN
        raise ConfigError(f"config {path}: fwhm must be finite and positive, got {cfg['fwhm']}")
    if not 0 < cfg["alpha"] < 1:
        raise ConfigError(f"config {path}: alpha must lie in (0, 1), got {cfg['alpha']}")
    return cfg


def _cmd_fwer_sim(args) -> int:
    cfg = _load_fwer_config(args.config, {"seed": args.seed, "threads": args.threads})
    if args.dry_run:
        print(json.dumps({"plan": cfg}, indent=2))
        return 0
    rep = fwer_experiment(
        cfg["preset"], float(cfg["fwhm"]), cfg["n_subjects"], cfg["n_reps"], cfg["alpha"],
        r_lkc=cfg["r_lkc"], rng=RngSpec(cfg["seed"]),
        threads=cfg["threads"],
    )
    out = _out_dir(args)
    (out / "fwer_report.json").write_text(json.dumps(rep.to_dict(), indent=2, sort_keys=True) + "\n")
    with open(out / "fwer_summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_FWER_CSV_HEADER)
        for mode, res in rep.modes.items():
            w.writerow([
                rep.preset, rep.fwhm, rep.n_subjects, mode, res["fwer"], res["std_error"],
                "" if res["eec"] is None else res["eec"], rep.alpha, rep.n_reps,
            ])
    _write_manifest(out, "fwer-sim", cfg, ["fwer_report.json", "fwer_summary.csv"])
    for mode, res in rep.modes.items():
        print(f"{mode}: fwer={res['fwer']:.4f} (se {res['std_error']:.4f})")
    if rep.n_failures:
        print(f"{rep.n_failures} replication(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_census(args) -> int:
    dom, dom_label, _ = _load_domain(args)
    inner = dom.interior or dom
    man = VoxelManifold(inner)
    if args.dry_run:
        print(json.dumps({"plan": {"domain": dom_label}}, indent=2))
        return 0
    payload = {
        "domain": dom_label,
        "n_voxels": inner.n_voxels,
        "euler_characteristic": euler_characteristic(man),
        **classify_boundary(man).to_dict(),
    }
    out = _out_dir(args)
    (out / "census.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, "census", {"domain": dom_label}, ["census.json"])
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_check_nondegeneracy(args) -> int:
    dom, dom_label, _ = _load_domain(args)
    kern = _kernel_for(args, dom.dimension)
    x = np.array([float(c) for c in args.point.split(",")])
    if x.size != dom.dimension:
        raise ConfigError("--point dimension does not match the domain")
    config = {"domain": dom_label, "point": x.tolist(), "fwhm": args.fwhm,
              "truncation": args.truncation}
    if args.dry_run:
        print(json.dumps({"plan": config}, indent=2))
        return 0
    rep = nondegeneracy_check(kern, dom, x)
    payload = {
        "rank": rep.rank, "required": rep.required, "passed": rep.passed,
        "n_support_voxels": rep.n_support_voxels, "point": x.tolist(), "domain": dom_label,
    }
    out = _out_dir(args)
    (out / "nondegeneracy.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, "check-nondegeneracy", config, ["nondegeneracy.json"])
    print(json.dumps(payload, sort_keys=True))
    return 0 if rep.passed else 1


def _cmd_surf_eval(args) -> int:
    config = {"fields": str(args.fields), "points": str(args.points), "order": args.order,
              "fwhm": args.fwhm, "truncation": args.truncation, "normalized": args.normalized}
    if args.dry_run:
        print(json.dumps({"plan": config}, indent=2))
        return 0
    ens = read_srf1(args.fields)
    D = ens.domain.dimension
    spec = SurfSpec(ens, _kernel_for(args, D), normalized=args.normalized)
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
    out = _out_dir(args)
    vals, grads, _ = _eval_arrays(spec, pts, args.order)
    path = out / "surf_eval.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        head = [f"x{d}" for d in range(D)] + [f"value{i}" for i in range(ens.n_fields)]
        if grads is not None:
            head += [f"grad{i}_x{d}" for i in range(ens.n_fields) for d in range(D)]
        w.writerow(head)
        for p in range(len(pts)):
            row = [repr(float(c)) for c in pts[p]] + [repr(float(v)) for v in vals[:, p]]
            if grads is not None:
                row += [repr(float(g)) for g in grads[:, p, :].ravel()]
            w.writerow(row)
    _write_manifest(out, "surf eval", config, ["surf_eval.csv"])
    print(f"wrote {path}")
    return 0


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
    p.add_argument("--threads", type=int, default=None, help="override config threads")
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
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ThresholdError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
