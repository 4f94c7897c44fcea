"""Per-layer self times, recorded from outside the package.

The tracer replaces the module-level names that robustform's own callers
look up (``robustform.certifier.assemble``, ``robustform.simulate.step``,
``MatrixPolynomial.__call__``, ...) with timing wrappers, and puts the
originals back when it is done.  Nothing inside the package changes.

Every wrapper records its *self* time: the CPU time of the call (the
worker has one thread, and its clock leaves out speed.py's kernel) minus the
time spent in nested wrapped calls.  The worker then scales each
operation's self times to the reference speed, as it does the operation's
own time.  The self times of all spans therefore add up to the scaled times
of the outermost spans, which is what lets the per-layer numbers be compared
with the untraced end-to-end times.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

# (where the name is looked up, attribute, span).  A span is a layer metric
# name without the "_s" suffix; several names can feed one span.
PATCHES = [
    ("robustform.scenario:ScenarioSpec", "load", "scenario.load"),
    ("robustform.certifier", "laplacian", "netgraph.laplacian"),
    ("robustform.certifier", "reduced_basis", "netgraph.laplacian"),
    ("robustform.certifier", "reduced_laplacian", "netgraph.laplacian"),
    ("robustform.certifier", "power_vector", "smr.gram"),
    ("robustform.certifier", "_positions", "smr.gram"),
    ("robustform.certifier", "gram_null_basis", "smr.gram"),
    ("robustform.smr:PowerVector", "eval_batch", "smr.gram"),
    ("robustform.certifier", "assemble", "certifier.assemble"),
    ("robustform.sdp", "solve", "sdp.solve"),
    ("robustform.sdp", "residuals", "sdp.residuals"),
    ("robustform.cli", "certify", "certifier.extract"),
    ("robustform.simulate", "certify", "certifier.extract"),
    ("robustform.cli", "sample_lambda2", "certifier.lambda2"),
    ("robustform.certifier", "verify_certificate",
     "certifier.replay_sampled"),
    ("robustform.polyalg:MatrixPolynomial", "__call__",
     "polyalg.matpoly_eval"),
    ("robustform.simulate", "tune_mu", "barrier.tune_mu"),
    ("robustform.simulate", "update_edges", "netgraph.update_edges"),
    ("robustform.simulate", "zone_pairs_at", "barrier.zone_pairs_at"),
    ("robustform.simulate", "step", "simulate.integrate"),
    ("robustform.simulate", "run", "simulate.monitor"),
    ("robustform.cli", "run", "simulate.monitor"),
    ("robustform.cli", "cmd_certify", "cli.certify_write"),
    ("robustform.cli", "cmd_simulate", "cli.write"),
    ("robustform.cli", "main", "trace.other"),
]

# Spans in report order; trace.other is the self time of the outermost
# spans (argument parsing and dispatch in the CLI).
SPANS = list(dict.fromkeys(span for _, _, span in PATCHES))


def _resolve(where: str):
    import importlib
    mod, _, cls = where.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Installs the wrappers of PATCHES and accumulates self times, read off
    ``clock``."""

    def __init__(self, clock=time.thread_time):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.iter_gaps: list[float] = []
        self.sdp_iterations = 0
        self.sdp_n_vars = 0
        self._stack: list[float] = []
        self._saved: list = []

    def _wrap(self, fn, span: str):
        clock = self.clock
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                self_s[span] += dt - child
                calls[span] += 1
                if stack:
                    stack[-1] += dt

        return traced

    def _wrap_solve(self, fn, span: str):
        """sdp.solve gets its per-iteration callback filled in, so the
        time between successive iterations can be read off."""
        inner = self._wrap(fn, span)

        def solve(problem, *args, **kwargs):
            ticks: list[float] = []
            user_cb = kwargs.get("callback")

            def callback(stats):
                ticks.append(self.clock())
                if user_cb is not None:
                    user_cb(stats)

            kwargs["callback"] = callback
            try:
                return inner(problem, *args, **kwargs)
            finally:
                self.sdp_iterations += len(ticks)
                self.sdp_n_vars = problem.n_vars
                self.iter_gaps.extend(b - a for a, b in zip(ticks, ticks[1:]))

        return solve

    def install(self) -> None:
        for where, name, span in PATCHES:
            owner = _resolve(where)
            raw = owner.__dict__[name] if isinstance(owner, type) \
                else getattr(owner, name)
            self._saved.append((owner, name, raw))
            if isinstance(raw, classmethod):
                wrapped = staticmethod(self._wrap(getattr(owner, name), span))
            elif name == "solve":
                wrapped = self._wrap_solve(raw, span)
            else:
                wrapped = self._wrap(raw, span)
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    def mark(self):
        return dict(self.self_s), len(self.iter_gaps)

    def scale_since(self, mark, factor: float) -> None:
        """Scale what was recorded since ``mark()`` by ``factor``; the worker
        brings each operation's spans to the reference speed with that
        operation's own factor (speed.py)."""
        before, gaps = mark
        for span, value in self.self_s.items():
            old = before.get(span, 0.0)
            self.self_s[span] = old + (value - old) * factor
        self.iter_gaps[gaps:] = [g * factor for g in self.iter_gaps[gaps:]]

    @property
    def n_calls(self) -> int:
        return sum(self.calls.values())

    def iter_s(self) -> float:
        return statistics.median(self.iter_gaps) if self.iter_gaps \
            else float("nan")


def wrapper_cost_s(clock, n: int = 200_000) -> float:
    """Extra CPU time one traced call costs over a plain call.

    Measured on a no-op function with the same wrapper and clock the tracer
    uses; the median of five batches is taken."""
    def noop():
        return None

    traced = Tracer(clock)._wrap(noop, "noop")
    costs = []
    for _ in range(5):
        t0 = time.thread_time()
        for _ in range(n):
            noop()
        t1 = time.thread_time()
        for _ in range(n):
            traced()
        t2 = time.thread_time()
        costs.append(((t2 - t1) - (t1 - t0)) / n)
    return max(0.0, statistics.median(costs))
