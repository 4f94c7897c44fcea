"""Scenario definitions: formation, initial state, uncertain weights.

A scenario bundles everything a simulation run needs except the seed:
agent geometry, desired formation offsets, initial positions and
velocities, the formation edge list, and the uncertain weight matrix with
its parameter region.  Scenarios serialize to a small JSON document whose
polynomial entries are explicit term records, so files stay diffable and
independent of any pickle format.  The shipped scenarios (BUILTIN) are
defined only by their files under scenarios/, found by builtin_path.

Runs integrate with classical RK4, the only integrator: a file records it
as "method": "rk4", and from_dict refuses any other value.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .barrier import BarrierParams
from .netgraph import AgentGeometry, UncertainAdjacency, canon_edge
from .polyalg import MatrixPolynomial, Polynomial

FORMAT = "formation-scenario/1"
NAME_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")


def _finite_polynomial(r: int, terms, where: str) -> Polynomial:
    """Polynomial of term records whose coefficients are all finite."""
    if not all(math.isfinite(float(t["coeff"])) for t in terms):
        raise ValueError(f"{where}: non-finite coefficient")
    return Polynomial.from_records(r, terms)


def _require(ok: bool, key: str, rule: str, value) -> None:
    """Raise ValueError naming the field key unless ok."""
    if not ok:
        raise ValueError(f"{key}: must be {rule}, got {value!r}")


def check_time_grid(dt, T_end, record_every,
                    zero_horizon: bool = False) -> None:
    """Raise ValueError naming the first bad time-grid setting: dt and
    T_end finite and > 0 (T_end >= 0 with zero_horizon), record_every an
    integer >= 1."""
    _require(math.isfinite(dt) and dt > 0, "dt", "finite and > 0", dt)
    _require(math.isfinite(T_end) and (T_end > 0 or (zero_horizon and
                                                     T_end == 0)),
             "T_end", f"finite and {'>=' if zero_horizon else '>'} 0", T_end)
    _require(isinstance(record_every, int) and record_every >= 1,
             "record_every", "an integer >= 1", record_every)


@dataclass
class ScenarioSpec:
    """Complete input for a simulation run, minus the seed."""

    name: str
    geometry: AgentGeometry
    tau: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    formation_edges: frozenset
    adjacency: UncertainAdjacency
    barrier: BarrierParams | None = None
    assumption_overrides: dict = field(default_factory=dict)
    jitter_pos: float = 0.0
    jitter_vel: float = 0.0
    T_end: float = 40.0
    dt: float = 1e-3
    record_every: int = 100
    n_weight_samples: int = 16
    conv_tol: float | None = None

    def __post_init__(self):
        # the name becomes a file name in output directories
        if not (isinstance(self.name, str) and NAME_RE.fullmatch(self.name)):
            raise ValueError(f"name: {self.name!r} is not a plain file "
                             f"name matching {NAME_RE.pattern}")
        N = self.adjacency.N
        for key in ("tau", "positions", "velocities"):
            a = np.asarray(getattr(self, key), dtype=float)
            if a.ndim != 2 or a.shape[0] != N or a.shape[1] < 1:
                raise ValueError(
                    f"{key}: must be {N} rows of coordinates, one per "
                    f"agent, got shape {a.shape}")
            bad = np.argwhere(~np.isfinite(a))
            if bad.size:
                i, k = bad[0]
                raise ValueError(f"{key}: coordinate [{i}][{k}] is "
                                 f"{a[i, k]}, must be finite")
            setattr(self, key, a)
        if self.tau.shape != self.positions.shape or \
                self.tau.shape != self.velocities.shape:
            raise ValueError("tau, positions, velocities shapes differ")
        self.formation_edges = frozenset(
            canon_edge(i, j) for (i, j) in self.formation_edges)
        for (i, j) in self.formation_edges:
            if not (0 <= i < N and 0 <= j < N):
                raise ValueError(f"formation edge ({i},{j}) out of range")
        check_time_grid(self.dt, self.T_end, self.record_every)
        n, tol = self.n_weight_samples, self.conv_tol
        _require(isinstance(n, int) and n >= 0, "n_weight_samples",
                 "an integer >= 0", n)
        for key in ("jitter_pos", "jitter_vel"):
            value = getattr(self, key)
            _require(math.isfinite(value) and value >= 0, key,
                     "finite and >= 0", value)
        _require(tol is None or (math.isfinite(tol) and tol > 0), "conv_tol",
                 "null or finite and > 0", tol)

    @property
    def n_agents(self) -> int:
        return self.adjacency.N

    @property
    def dim(self) -> int:
        return self.tau.shape[1]

    def to_dict(self) -> dict:
        adj = self.adjacency
        weights = []
        for i in range(adj.N):
            for j in range(i + 1, adj.N):
                p = adj.entries.entry(i, j)
                if not p.is_zero:
                    weights.append({"i": i, "j": j,
                                    "terms": p.to_records()})
        doc = {
            "format": FORMAT,
            "name": self.name,
            "geometry": asdict(self.geometry),
            "tau": self.tau.tolist(),
            "positions": self.positions.tolist(),
            "velocities": self.velocities.tolist(),
            "formation_edges": sorted(list(e)
                                      for e in self.formation_edges),
            "uncertainty": {
                "n_parameters": adj.r,
                "box": [list(b) for b in adj.box],
                "region": [{"terms": s.to_records()} for s in adj.omega],
                "weights": weights,
            },
            "barrier": None if self.barrier is None else {
                "mu1": self.barrier.mu1, "mu2": self.barrier.mu2,
                "eps_hat": self.barrier.eps_hat},
            "assumption_overrides": dict(self.assumption_overrides),
            "jitter_pos": self.jitter_pos,
            "jitter_vel": self.jitter_vel,
            "T_end": self.T_end,
            "dt": self.dt,
            "record_every": self.record_every,
            "n_weight_samples": self.n_weight_samples,
            "method": "rk4",
            "conv_tol": self.conv_tol,
        }
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioSpec":
        if not isinstance(doc, dict):
            raise ValueError(f"top level must be a JSON object, got "
                             f"{type(doc).__name__}")
        if doc.get("format") != FORMAT:
            raise ValueError(
                f"unsupported scenario format {doc.get('format')!r}")
        method = doc.get("method", "rk4")
        if method != "rk4":
            raise ValueError(f"method: only 'rk4' is supported, got "
                             f"{method!r}")
        tau = np.asarray(doc["tau"], dtype=float)
        if tau.ndim != 2:  # N is read off tau
            raise ValueError(f"tau: must be rows of coordinates, got shape "
                             f"{tau.shape}")
        N = tau.shape[0]
        unc = doc["uncertainty"]
        r = int(unc["n_parameters"])
        entries = MatrixPolynomial.zeros(N, N, r)
        pairs = set()
        for k, w in enumerate(unc["weights"]):
            where = f"uncertainty.weights[{k}]"
            i, j = w["i"], w["j"]
            if not (isinstance(i, int) and isinstance(j, int)
                    and 0 <= i < N and 0 <= j < N):
                raise ValueError(
                    f"{where}: pair ({i},{j}) is not two indices in [0, {N})")
            if i == j:
                raise ValueError(f"{where}: self loop ({i},{j})")
            pair = canon_edge(i, j)
            if pair in pairs:
                raise ValueError(f"{where}: duplicate pair ({i},{j})")
            pairs.add(pair)
            p = _finite_polynomial(r, w["terms"], where)
            entries.set_entry(i, j, p)
            entries.set_entry(j, i, p)
        omega = [_finite_polynomial(r, s["terms"], f"uncertainty.region[{k}]")
                 for k, s in enumerate(unc["region"])]
        box = [tuple(float(v) for v in b) for b in unc["box"]]
        for k, b in enumerate(box):
            if len(b) != 2 or not all(math.isfinite(v) for v in b):
                raise ValueError(f"uncertainty.box[{k}]: bounds {list(b)} "
                                 f"are not two finite numbers")
        adj = UncertainAdjacency(N=N, entries=entries, omega=omega, box=box)
        barrier = doc.get("barrier")
        return cls(
            name=doc["name"],
            geometry=AgentGeometry(**doc["geometry"]),
            tau=tau,
            positions=np.asarray(doc["positions"], dtype=float),
            velocities=np.asarray(doc["velocities"], dtype=float),
            formation_edges=frozenset(
                (int(i), int(j)) for i, j in doc["formation_edges"]),
            adjacency=adj,
            barrier=None if barrier is None else BarrierParams(**barrier),
            assumption_overrides=dict(doc.get("assumption_overrides", {})),
            jitter_pos=float(doc.get("jitter_pos", 0.0)),
            jitter_vel=float(doc.get("jitter_vel", 0.0)),
            T_end=float(doc.get("T_end", 40.0)),
            dt=float(doc.get("dt", 1e-3)),
            record_every=doc.get("record_every", 100),
            n_weight_samples=doc.get("n_weight_samples", 16),
            conv_tol=(None if doc.get("conv_tol") is None
                      else float(doc["conv_tol"])),
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "ScenarioSpec":
        return cls.from_dict(json.loads(Path(path).read_text()))


BUILTIN = ("six_agent", "fifty_agent", "adversarial")


def builtin_path(name: str) -> Path:
    """Path of a scenario file shipped with the package."""
    if name not in BUILTIN:
        raise KeyError(
            f"unknown scenario {name!r}; shipped: {sorted(BUILTIN)}")
    return Path(__file__).parent / "scenarios" / f"{name}.json"
