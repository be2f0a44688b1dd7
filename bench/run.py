"""Benchmark of surfield: one workload per invocation.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

run from the repository root.  Workloads: fwer_stat2d, cli_lkc_nonstat3d,
wn_theory_3d (see bench/README.md).  Each runs in its own worker process as
a closed loop with one client.  With ``--trace 0`` the last line of standard
output is the end-to-end result; with ``--trace 1`` it holds the per-layer
metrics of a traced run.  The line before it records the environment.

``setup_s`` is the median over several fresh worker processes of the time
from spawning the interpreter until the workload is ready; the last of them
goes on to run the workload.  Exits non-zero without a result when the
program's sources are missing or a worker fails.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)  # import the bench package, not modules beside this file

WORKLOADS = ("fwer_stat2d", "cli_lkc_nonstat3d", "wn_theory_3d")
SETUP_SAMPLES = 3  # fresh worker processes timed per run; the last one runs the workload
DEADLINE_S = 170.0  # every worker of a run must end within this


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    src = ROOT / "src" / "surfield"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "default") for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


def spawn(args, work: Path, probe: bool, deadline: float) -> dict:
    """Start one worker, wait for it, and return its last JSON line."""
    cmd = [
        sys.executable, "-m", "bench.worker", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work), "--t0", repr(time.monotonic()),
    ] + (["--probe"] if probe else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "surfield" / "__init__.py").is_file():
        print(f"error: no surfield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from bench import inputs

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / "bench" / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.workload == "cli_lkc_nonstat3d":
        inputs.write_cli_inputs(work, args.seed)

    try:
        if args.trace:
            res = spawn(args, work, False, deadline)
        else:
            samples = [spawn(args, work, True, deadline)["ready"]
                       for _ in range(SETUP_SAMPLES - 1)]
            res = spawn(args, work, False, deadline)
            samples.append(res["setup_s"])
            res["metrics"]["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
            res["info"]["setup_samples_s"] = samples
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        print(f"error: {args.workload}: {e}", file=sys.stderr)
        return 1

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": environment(), **res.pop("info")}
    for key in ("spans", "self_sum_s", "root_sum_s"):
        if key in res:
            info[key] = res.pop(key)
    res.pop("setup_s", None)
    summary = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    with open(ROOT / "bench" / "_work" / "results.jsonl", "a") as fh:
        fh.write(json.dumps({**summary, "info": info}) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
