"""One workload in its own process: set-up, a closed loop with one client,
and the independent checks of every output.

Started by ``bench/run.py`` as ``python3 -m bench.worker`` from the
repository root; not meant to be run by hand.  Prints a JSON line
``{"ready": <set-up seconds>}`` when set-up is done (``--probe`` stops
there), then one JSON line with the operation counts, metrics and run
details.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from bench import checks, inputs  # noqa: E402


class FwerStat2d:
    """Null FWER replications on stat2d, alternating FWHM 3 and FWHM 1; one
    operation is fwer_experiment(..., n_reps=1) on its own master seed."""

    round_len, min_ops, trace_ops = 2, 2, 20

    def __init__(self, seed: int, work: Path):
        self.seeds = inputs.fwer_master_seeds(seed)

    def setup(self):
        from surfield import inference, lattice

        self.inference, self.lattice = inference, lattice
        self._run(inputs.WARMUP_ENTROPY, inputs.FWER_FWHMS[0])

    def _run(self, master: int, fwhm: float) -> dict:
        rep = self.inference.fwer_experiment(
            "stat2d", fwhm, inputs.FWER_N_SUBJECTS, 1, inputs.FWER_ALPHA,
            rng=self.lattice.RngSpec(master), threads=1, keep_details=True,
        )
        out = {"seed": master, "fwhm": fwhm, "n_failures": rep.n_failures}
        out.update({k: float(v[0]) for k, v in rep.details.items() if len(v)})
        return out

    def op(self, i: int, tag: str) -> dict:
        return self._run(self.seeds[i % len(self.seeds)], inputs.FWER_FWHMS[i % 2])

    def check(self, outs: list) -> tuple[list[list[str]], list[str], dict]:
        u_ref = checks.solve_threshold((1.0,) + checks.THEORY_D2_FWHM3, inputs.FWER_N_SUBJECTS - 1,
                                       inputs.FWER_ALPHA)
        per_op = []
        for out in outs:
            if out.get("n_failures") or "u_hat" not in out:
                per_op.append([f"replication failed: {out}"])
                continue
            ref = checks.stat2d_suprema(out["seed"], out["fwhm"], inputs.FWER_N_SUBJECTS)
            per_op.append(checks.check_fwer_rep(out, ref, u_ref))
        done = [o for o, bad in zip(outs, per_op) if not bad]
        exceed = sum(o["sup_inf"] > o["u_hat"] for o in done)
        limit = checks.rinf_limit(len(done), inputs.FWER_ALPHA)
        run = [] if exceed <= limit else [f"{exceed} rinf exceedances above the limit {limit}"]
        u3 = [o["u_hat"] for o in done if o["fwhm"] == 3.0]
        return per_op, run, {
            "u_ref": u_ref, "u_hat_fwhm3_range": [min(u3), max(u3)] if u3 else [],
            "rinf_exceedances": exceed, "rinf_limit": limit,
        }


class CliLkcNonstat3d:
    """``surfield lkc --fields <ensemble.srf1> --fwhm 3 --source ensemble --r 1``
    then ``surfield threshold --family t --df 49`` on the printed LKCs, both
    in-process through surfield.cli.main."""

    round_len, min_ops, trace_ops = 1, inputs.CLI_ENSEMBLES, inputs.CLI_ENSEMBLES

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.files = inputs.cli_files(work)
        self.nu = inputs.CLI_N_SUBJECTS - 1

    def setup(self):
        from surfield import cli

        self.cli = cli
        self._run(self.work / "warmup.srf1", self.work / "out" / "warmup")

    def _main(self, argv: list[str]) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"surfield {argv[0]} exited with {rc}")
        return buf.getvalue().strip()

    def _run(self, path: Path, out: Path) -> dict:
        row = self._main([
            "lkc", "--fields", str(path), "--fwhm", str(inputs.CLI_FWHM), "--source", "ensemble",
            "--r", "1", "--out", str(out / "lkc"),
        ]).split(",")
        lkcs = ",".join(row[4:8])
        u = self._main([
            "threshold", "--lkcs", lkcs, "--family", "t", "--df", str(self.nu),
            "--alpha", str(inputs.CLI_ALPHA), "--out", str(out / "threshold"),
        ])
        return {"lkcs": [float(x) for x in row[4:8]], "u": float(u), "out": str(out)}

    def op(self, i: int, tag: str) -> dict:
        j = i % len(self.files)
        out = self._run(self.files[j], self.work / "out" / f"{tag}{i:03d}")
        out["input"] = j
        return out

    def check(self, outs: list) -> tuple[list[list[str]], list[str], dict]:
        from surfield import lattice, lkc, manifold
        from surfield.kernel import GaussianKernel

        per_op = [checks.check_cli_op(o["lkcs"], o["u"], self.nu, inputs.CLI_ALPHA) for o in outs]
        try:
            rerun = self._run(self.files[outs[0]["input"]], self.work / "out" / "rerun")
        except Exception as e:  # reported as the first operation's failure
            per_op[0].append(f"rerun of input {outs[0]['input']} failed: {e}")
        else:
            for name in ("lkc/lkc.csv", "lkc/manifest.json", "threshold/threshold.json",
                         "threshold/manifest.json"):
                first = (Path(outs[0]["out"]) / name).read_bytes()
                if first != (Path(rerun["out"]) / name).read_bytes():
                    per_op[0].append(f"rerun of input {outs[0]['input']} changed {name}")
        domain = lattice.VoxelSet(inputs.nonstat3d_shell())
        wn = lkc.lkc_compute("white-noise", GaussianKernel.isotropic(inputs.CLI_FWHM, 3),
                             manifold.VoxelManifold(domain), 1).values
        first_seen = {}
        for o, bad in zip(outs, per_op):
            if not bad:
                first_seen.setdefault(o["input"], o["lkcs"])
        run, z = [], []
        if len(first_seen) >= 2:
            z = checks.unbiasedness_z(np.array(list(first_seen.values())), wn).tolist()
            if max(abs(v) for v in z) > checks.Z_MAX:
                run.append(f"ensemble LKC means are biased: z = {z}")
        else:
            run.append("fewer than two ensembles passed; unbiasedness not checked")
        return per_op, run, {"white_noise": list(wn), "z": z, "ensembles": len(first_seen)}


class WnTheory3d:
    """White-noise LKCs of the stat3d box at r = 7 for the seven
    criterion-1 FWHMs in turn; one operation is one lkc_compute call."""

    round_len = min_ops = trace_ops = len(inputs.WN_FWHMS)

    def __init__(self, seed: int, work: Path):
        self.order = inputs.wn_order(seed)

    def setup(self):
        from surfield import lattice, lkc, manifold
        from surfield.kernel import GaussianKernel

        self.lkc = lkc
        self.manifold = manifold.VoxelManifold(lattice.make_domain_preset("stat3d", 1.0).interior)
        self.grid = manifold.refined_grid(self.manifold, inputs.WN_R)
        self.cases = {
            f: (lattice.make_domain_preset("stat3d", f), GaussianKernel.isotropic(f, 3))
            for f in inputs.WN_FWHMS
        }

    def op(self, i: int, tag: str) -> dict:
        f = self.order[i % len(self.order)]
        dom, kern = self.cases[f]
        vec = self.lkc.lkc_compute("white-noise", kern, self.manifold, inputs.WN_R,
                                   sample_domain=dom, grid=self.grid)
        return {"fwhm": f, "lkcs": list(vec.values)}

    def check(self, outs: list) -> tuple[list[list[str]], list[str], dict]:
        return [checks.check_wn(o["fwhm"], o["lkcs"]) for o in outs], [], {}


WORKLOADS = {
    "fwer_stat2d": FwerStat2d,
    "cli_lkc_nonstat3d": CliLkcNonstat3d,
    "wn_theory_3d": WnTheory3d,
}


# ---------------------------------------------------------------------------
# Driving the loop
# ---------------------------------------------------------------------------


def _attempt(wl, i: int, tag: str):
    """Run operation i; an exception is that operation's failure."""
    try:
        return wl.op(i, tag)
    except Exception as e:  # one operation's failure must not end the run
        return {"error": f"{type(e).__name__}: {e}"}


def closed_loop(wl, seconds: float) -> tuple[list[float], list, float]:
    """Operations back to back, in whole rounds and at least ``min_ops``,
    stopping at the round boundary nearest to ``seconds``."""
    lat, outs = [], []
    t0 = round_start = time.perf_counter()
    while True:
        i = len(outs)
        t = time.perf_counter()
        outs.append(_attempt(wl, i, "op"))
        lat.append(time.perf_counter() - t)
        n = len(outs)
        if n % wl.round_len == 0:
            now = time.perf_counter()
            if n >= wl.min_ops and now - t0 + (now - round_start) / 2 >= seconds:
                return lat, outs, now - t0
            round_start = now


def traced_overhead(wl, tracer) -> tuple[float, list]:
    """Each of the first ``trace_ops`` operations once untraced and once
    traced, back to back so that both see the same machine state.  The order
    alternates, and the overhead (s) is the mean of the median difference in
    each order, which cancels what a second run of the same input gains."""
    diffs: dict[bool, list[float]] = {True: [], False: []}
    outs = []

    def timed(i: int, traced: bool) -> float:
        if not traced:
            t = time.perf_counter()
            outs.append(_attempt(wl, i, "plain"))
            return time.perf_counter() - t
        tracer.install()
        try:
            op = tracer.wrap("bench.op", _attempt)
            t = time.perf_counter()
            outs.append(op(wl, i, "traced"))
            return time.perf_counter() - t
        finally:
            tracer.uninstall()

    for i in range(wl.trace_ops):
        plain_first = i % 2 == 0
        first = timed(i, not plain_first)
        second = timed(i, plain_first)
        traced, plain = (second, first) if plain_first else (first, second)
        diffs[plain_first].append(traced - plain)
    return float(np.mean([np.median(d) for d in diffs.values() if d])), outs


def _checked(wl, outs: list) -> tuple[int, bool, dict]:
    ok = [o for o in outs if "error" not in o]
    per_op, run, info = wl.check(ok) if ok else ([], [], {})
    errors = [[o["error"]] for o in outs if "error" in o]
    problems = [bad for bad in per_op if bad] + errors
    info["failures"] = problems[:5]
    info["run_checks"] = run
    return len(problems), not run, info


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="stop after set-up")
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)

    import surfield  # noqa: F401  (set-up time includes the import)

    wl = WORKLOADS[args.workload](args.seed, Path(args.work))
    tracer = None
    if args.trace:
        from bench.tracing import Tracer

        tracer = Tracer()
        tracer.install()
    wl.setup()
    setup_s = time.monotonic() - args.t0
    print(json.dumps({"ready": setup_s}), flush=True)
    if args.probe:
        return 0

    result = {"setup_s": setup_s}
    if tracer is None:
        lat, outs, wall = closed_loop(wl, args.seconds)
        ms = np.asarray(lat) * 1e3
        metrics = {
            "op_p50_ms": (float(np.percentile(ms, 50)), "ms"),
            "op_p90_ms": (float(np.percentile(ms, 90)), "ms"),
            "ops_per_s": (len(outs) / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        tracer.uninstall()
        tracer.phase = "ops"
        overhead, outs = traced_overhead(wl, tracer)
        metrics = tracer.layer_metrics(wl.trace_ops)
        metrics["trace.overhead_ms"] = (overhead * 1e3, "ms")
        spans = Path(args.work) / f"spans-seed{args.seed}.jsonl"
        tracer.write(spans)
        result["spans"] = str(spans.relative_to(ROOT))
        result["self_sum_s"] = float(tracer.self_times().sum())
        result["root_sum_s"] = tracer.root_total()
    failed, correct, info = _checked(wl, outs)
    result.update({
        "correct": correct, "attempted": len(outs), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
