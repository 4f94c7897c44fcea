"""One benchmark run inside a process whose BLAS threads are pinned.

run.py starts this file in a fresh interpreter with the thread-count
variables already in its environment, so NumPy's BLAS comes up with a single
thread; the worker confirms that by counting its own OS threads.  It runs
whole rounds of the workload's operations through robustform's public entry
points until the run's seconds are used, checks every output, and prints a
fingerprint line and then one JSON line with its metrics.

``--probe`` instead imports the package, parses the scenario (and loads a
certificate), and prints ``ready`` with its CPU time since the process
started, at the reference speed of speed.py, and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RING50_CERTIFICATE = BENCH_DIR / "fifty_agent_certificate.json"

# A round is a fixed list of operations built from the run's seed s:
#   ring50   the certify command, its replay, and simulate.run of
#            fifty_agent (horizon T, stored certificate) for seeds
#            3s..3s+2: one before the certify command, one between it and
#            the replay, one after the replay;
#   hexagon  for each seed k in 5s..5s+4: the certify command, its replay,
#            the simulate command with horizon T.
# Rounds repeat, identical, until the run's seconds are used.  Times are
# the CPU time of each operation at the reference speed (speed.py),
# reported as the median over the run's repetitions.  converge: check the
# final formation error against the scenario's conv_tol.
WORKLOADS = {
    "ring50": {"scenario": "fifty_agent", "cli_simulate": False, "T": 1.0,
               "converge": False},
    "hexagon": {"scenario": "six_agent", "cli_simulate": True, "T": 10.0,
                "converge": True},
}
QUICK = {"scenario": "six_agent", "cli_simulate": True, "T": 2.0,
         "converge": False}
# Replay sample count: a quarter of verify_certificate's default 2000, which
# keeps the fifty-agent replay near 7 s, so a ring50 run ends well inside
# its time limit on a loaded machine; per-sample work still dominates it.
REPLAY_SAMPLES = 500


def plan(workload: str | None, seed: int) -> list[tuple[str, int]]:
    if workload == "ring50":
        return [("simulate", 3 * seed), ("certify", seed),
                ("simulate", 3 * seed + 1), ("replay", seed),
                ("simulate", 3 * seed + 2)]
    seeds = [seed] if workload is None else range(5 * seed, 5 * seed + 5)
    return [(kind, k) for k in seeds
            for kind in ("certify", "replay", "simulate")]


def os_threads() -> int:
    return len(os.listdir("/proc/self/task"))


def probe(scenario: str, certificate: str | None) -> None:
    import speed  # loads NumPy, as robustform's own import would

    def load():
        from robustform.certifier import Certificate
        from robustform.cli import _resolve_scenario_path
        from robustform.scenario import ScenarioSpec
        ScenarioSpec.load(_resolve_scenario_path(scenario))
        if certificate:
            Certificate.load(certificate)

    with speed.SpeedProbe() as sp:
        _, scaled, _ = sp.timed(load, start=0.0)
    print(f"ready {scaled!r}", flush=True)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def sha256_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def cli(argv: list[str]) -> tuple[int, str]:
    """robustform's command line, in-process, with its output captured."""
    import robustform.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            rc = robustform.cli.main(argv)
        except SystemExit as err:  # how the CLI reports a parse error
            rc = err.code
    return rc, out.getvalue()


class Run:
    """Operations of one run, their timings and their outputs."""

    def __init__(self, cfg: dict, ops: list[tuple[str, int]], work: Path,
                 probe, tracer=None):
        from robustform.certifier import Certificate
        from robustform.cli import _resolve_scenario_path
        from robustform.scenario import ScenarioSpec
        self.cfg = cfg
        self.work = work
        self.scenario_path = _resolve_scenario_path(cfg["scenario"])
        self.spec = ScenarioSpec.load(self.scenario_path)
        self.stored_cert = None if cfg["cli_simulate"] \
            else Certificate.load(RING50_CERTIFICATE)
        self.ops = ops
        self.probe = probe
        self.tracer = tracer
        self.cpu_s: list[float] = []  # raw CPU time of every operation
        self.times = {"certify": [], "replay": [], "simulate": []}
        self.steps: list[int] = []  # steps of each timed simulation
        self.switches = 0
        self.bytes_written = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.failures: list[str] = []
        self.fingerprints: dict = {}
        self.outputs: list = []

    def _op(self, kind: str, fn):
        """Run one operation; returns its output and its CPU time at the
        reference speed (speed.py), or None when it raised, which counts it
        as failed.  The caller records the time only once the output shows
        the operation succeeded.

        Each operation starts from a collected heap, so garbage left by the
        previous one neither adds to its peak memory nor gets collected on
        its time."""
        self.attempted += 1
        gc.collect()
        mark = self.tracer.mark() if self.tracer else None
        try:
            out, scaled, cpu = self.probe.timed(fn)
        except Exception as err:
            self._fail(f"{kind}: {type(err).__name__}: {err}")
            return None
        if mark is not None and cpu > 0:
            self.tracer.scale_since(mark, scaled / cpu)
        self.cpu_s.append(cpu)
        return out, scaled

    def _fail(self, why: str) -> None:
        """A failed operation: counted, kept out of the correctness
        verdict, which speaks of the operations that did not fail."""
        self.failed += 1
        self.errors.append(why)

    def _fingerprint(self, key: str, value) -> None:
        """Record a fingerprint; every repeat must reproduce it exactly."""
        old = self.fingerprints.setdefault(key, value)
        if old != value:
            self.failures.append(f"{key} differs between repeats")

    def round(self) -> None:
        for kind, s in self.ops:
            getattr(self, kind)(s)

    def _cert_path(self, s: int) -> Path:
        return self.work / f"certificate_seed{s}.json"

    def certify(self, s: int) -> None:
        path = self._cert_path(s)
        res = self._op("certify", lambda: cli(
            ["certify", self.cfg["scenario"], "--seed", str(s),
             "--out", str(path)]))
        if res is None:
            return
        (rc, text), dt = res
        if rc != 0:
            self._fail(f"certify seed {s} exited {rc}")
            return
        self.times["certify"].append(dt)
        if "certify: CONNECTED" not in text:
            self.failures.append(f"certify seed {s} did not print CONNECTED")
        self.bytes_written += path.stat().st_size
        self._fingerprint("certificate_sha256", sha256_file(path))
        self.outputs.append(("certificate", s, path))

    def replay(self, s: int) -> None:
        from robustform import certifier
        path = self._cert_path(s)
        if not path.exists():
            self.attempted += 1
            self._fail(f"replay seed {s}: no certificate to replay")
            return
        cert = certifier.Certificate.load(path)
        self._fingerprint("c_star", repr(cert.c_star))
        res = self._op("replay", lambda: certifier.verify_certificate(
            cert, self.spec.adjacency, n_samples=REPLAY_SAMPLES, seed=s))
        if res is None:
            return
        rep, dt = res
        self.times["replay"].append(dt)
        if not rep.ok:
            self.failures.append(f"replay seed {s}: {rep.failures}")

    def simulate(self, s: int) -> None:
        from robustform import simulate
        if not self.cfg["cli_simulate"]:
            res = self._op("simulate", lambda: simulate.run(
                self.spec, seed=s, certificate=self.stored_cert,
                T_end=self.cfg["T"]))
            if res is None:
                return
            out, dt = res
            if not out.ok:
                self.failures.append(f"run seed {s}: {out.failure}")
            self.times["simulate"].append(dt)
            self.steps.append(int(out.metrics["n_steps_taken"]))
            self.switches += int(out.metrics["n_switches"])
            log = out.log
            self._fingerprint(f"log_sha256_seed{s}", sha256_arrays(
                log.times, log.positions, log.velocities, log.controls,
                log.W_values))
            self.outputs.append(("log", s, log))
            return
        argv = ["simulate", self.cfg["scenario"], "--seed", str(s),
                "--T", str(self.cfg["T"]), "--out", str(self.work / "runs")]
        res = self._op("simulate", lambda: cli(argv))
        if res is None:
            return
        (rc, _), dt = res
        if rc != 0:
            self._fail(f"simulate seed {s} exited {rc}")
            return
        run_dir = self.work / "runs" / f"{self.spec.name}_seed{s}"
        metrics = json.loads((run_dir / "metrics.json").read_text())
        self.times["simulate"].append(dt)
        self.steps.append(int(metrics["n_steps_taken"]))
        self.switches += int(metrics["n_switches"])
        self.bytes_written += sum(f.stat().st_size for f in run_dir.iterdir())
        self._fingerprint(f"run_dir_sha256_seed{s}", sha256_dir(run_dir))
        self.outputs.append(("run_dir", s, run_dir))

    def check(self, seed: int) -> dict:
        """Check every distinct output against the oracles; returns the
        certificate's implied lambda2 bound and the oracle's minimum."""
        import numpy as np
        from robustform.certifier import sample_lambda2
        import oracle
        sc = oracle.ScenarioOracle(self.scenario_path)
        rng = np.random.default_rng([seed, 2017])
        seen = set()
        info = {}
        for kind, s, out in self.outputs:
            if (kind, s) in seen:
                continue
            seen.add((kind, s))
            if kind == "certificate":
                lam = sample_lambda2(self.spec.adjacency, n_samples=500,
                                     seed=s)
                fails, info = oracle.certificate_checks(
                    sc, json.loads(out.read_text()), lam.thetas, lam.values,
                    rng, n_samples=1000)
            elif kind == "run_dir":
                fails = oracle.trajectory_checks(
                    sc, *oracle.read_run_dir(out, sc.N),
                    converge=self.cfg["converge"])
            else:
                changes = {ev["t"] for ev in out.events
                           if ev["type"] in ("switch", "zone")}
                fails = oracle.trajectory_checks(
                    sc, out.positions, out.W_times, out.W_values, changes,
                    converge=False)
            self.failures += [f"{kind} seed {s}: {f}" for f in fails]
        return info


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe")
    ap.add_argument("--certificate")
    ap.add_argument("--workload")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work")
    args = ap.parse_args()
    if args.probe:
        probe(args.probe, args.certificate)
        return 0

    import numpy  # noqa: F401  (BLAS comes up here)
    import robustform.cli  # noqa: F401
    threads = os_threads()
    if threads != 1:
        print(f"error: {threads} OS threads after NumPy loaded; BLAS is "
              f"not pinned to one thread", file=sys.stderr)
        return 3

    cfg = QUICK if args.quick else WORKLOADS[args.workload]
    # Both modes time operations at the reference speed (speed.py); the
    # tracer's clock leaves out the time spent in the speed kernel.
    import speed
    speed_probe = speed.SpeedProbe()
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer(
            clock=lambda: time.thread_time() - speed_probe.spent_s)
        tracer.install()
    run = Run(cfg, plan(args.workload, args.seed), Path(args.work),
              speed_probe, tracer)
    # Whole rounds, at least one; a round starts only if a round of the
    # average length so far still ends within the run's seconds.
    rounds = 0
    t0 = time.perf_counter()
    try:
        with speed_probe:
            while True:
                run.round()
                rounds += 1
                used = time.perf_counter() - t0
                if used * (rounds + 1) / rounds > args.seconds:
                    break
    finally:
        if tracer is not None:
            tracer.uninstall()
    info = run.check(args.seed)
    threads = os_threads()
    if threads != 1:
        run.failures.append(f"{threads} OS threads at the end of the run")

    ops_cpu = sum(run.cpu_s) / rounds
    fingerprints = dict(run.fingerprints)
    fingerprints["simulate.steps"] = sum(run.steps) // rounds
    if tracer is not None:
        fingerprints["sdp.iterations"] = tracer.sdp_iterations // rounds
        fingerprints["polyalg.matpoly_eval_calls"] = \
            tracer.calls["polyalg.matpoly_eval"] // rounds
    print("fingerprints " + json.dumps(fingerprints, sort_keys=True))
    print("detail " + json.dumps({
        "rounds": rounds, "ops": run.ops, "os_threads": threads,
        "ops_cpu_s": ops_cpu, "op_times_s": run.times,
        "kernel_s": statistics.median(speed_probe.kernel_s),
        "certificate": info,
        "errors": run.errors, "failures": run.failures}))

    if tracer is None:
        sim = run.times["simulate"]
        metrics = {
            "certify_s": (median(run.times["certify"]), "s"),
            "replay_s": (median(run.times["replay"]), "s"),
            "simulate_s": (median(sim), "s"),
            "sim_steps_per_s": (median(
                [n / t for n, t in zip(run.steps, sim)]), "steps/s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        import tracer as tracing
        cost, scaled, cpu = speed_probe.timed(
            lambda: tracing.wrapper_cost_s(tracer.clock))
        cost *= scaled / cpu
        metrics = {f"{span}_s": (tracer.self_s[span] / rounds, "s")
                   for span in tracing.SPANS}
        metrics.update({
            "sdp.iterations": (tracer.sdp_iterations / rounds, "count"),
            "sdp.iter_s": (tracer.iter_s(), "s"),
            "sdp.n_vars": (tracer.sdp_n_vars, "count"),
            "certifier.lambda2_bound": (info.get("lambda2_bound",
                                                 float("nan")), "1"),
            "polyalg.matpoly_eval_calls": (
                tracer.calls["polyalg.matpoly_eval"] / rounds, "count"),
            "netgraph.update_edges_calls": (
                tracer.calls["netgraph.update_edges"] / rounds, "count"),
            "simulate.steps": (sum(run.steps) / rounds, "count"),
            "simulate.switches": (run.switches / rounds, "count"),
            "cli.bytes_written": (run.bytes_written / rounds, "bytes"),
            "trace.ops_s": (
                sum(sum(v) for v in run.times.values()) / rounds, "s"),
            "trace.overhead_s": (cost * tracer.n_calls / rounds, "s"),
        })
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
