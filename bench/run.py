"""robustform benchmark: certify, replay and simulate on the shipped scenarios.

    python3 bench/run.py --workload {ring50,hexagon} --seed N \\
        --seconds 30 --trace {0,1}
    python3 bench/run.py --quick        # six agents, short horizon, seconds

Run it from the root of a source checkout; the package is imported from
``src/``, nothing needs installing.  Each run measures set-up in fresh
interpreters, then starts one worker process (bench/worker.py) with BLAS
pinned to a single thread, which times each operation in CPU seconds at a
reference machine speed (bench/speed.py), and prints the worker's
fingerprint and detail lines followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are per-layer self times and counts taken by wrapping robustform's
module-level names from the benchmark's own files (bench/tracer.py).
See bench/README.md for the workloads, the metrics and what moves what.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORK = ROOT / ".bench_work"

# Thread-count variables of the BLAS builds NumPy may load.  They only take
# effect when set before NumPy is imported, hence a fresh process.
PINNED = {var: "1" for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_TRIALS = 7
DEADLINE_S = 170.0


def pinned_env() -> dict:
    env = dict(os.environ, **PINNED)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def setup_seconds(scenario: str, certificate: Path | None) -> float:
    """Median over fresh interpreters of the process CPU time from start to
    robustform imported and the scenario parsed (and the certificate
    loaded), at the reference speed, as each probe reports it; one
    unreported trial first warms the file cache."""
    argv = [sys.executable, str(WORKER), "--probe", scenario]
    if certificate is not None:
        argv += ["--certificate", str(certificate)]
    times = []
    for trial in range(SETUP_TRIALS + 1):
        proc = subprocess.run(argv, env=pinned_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=60)
        word, _, value = proc.stdout.strip().partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise RuntimeError(f"set-up probe failed: {argv}")
        if trial:
            times.append(float(value))
    return statistics.median(times)


def run_worker(argv: list[str], timeout: float) -> str:
    with subprocess.Popen([sys.executable, str(WORKER)] + argv,
                          env=pinned_env(), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"worker ran past {timeout:.0f} s")
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def bench(workload: str | None, seed: int, seconds: float, trace: int,
          quick: bool) -> dict:
    start = time.perf_counter()
    from worker import RING50_CERTIFICATE, WORKLOADS, QUICK
    cfg = QUICK if quick else WORKLOADS[workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        setup = None
        if not trace:
            setup = setup_seconds(
                cfg["scenario"],
                None if cfg["cli_simulate"] else RING50_CERTIFICATE)
        argv = ["--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--work", str(WORK)]
        argv += ["--quick"] if quick else ["--workload", workload]
        out = run_worker(argv, DEADLINE_S - (time.perf_counter() - start))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith(("fingerprints ", "detail ")):
            print(line)
    result = json.loads(lines[-1])
    if setup is not None:
        result["metrics"] = {"setup_s": {"value": setup, "unit": "s"},
                             **result["metrics"]}
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["ring50", "hexagon"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true",
                    help="self-check: six agents, 2 s horizon, both modes")
    args = ap.parse_args()
    if not (ROOT / "src" / "robustform" / "__init__.py").is_file():
        print(f"error: no robustform sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.quick:
        ok = True
        for trace in (0, 1):
            result = bench(None, args.seed, 0.0, trace, quick=True)
            print(json.dumps(result))
            ok &= result["correct"] and result["failed"] == 0
        return 0 if ok else 1
    if args.workload is None:
        ap.error("--workload is required unless --quick is given")
    result = bench(args.workload, args.seed, args.seconds, args.trace,
                   quick=False)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
