"""Scenario definitions: formation, initial state, uncertain weights.

A scenario bundles everything a simulation run needs except the seed:
agent geometry, desired formation offsets, initial positions and
velocities, the formation edge list, and the uncertain weight matrix with
its parameter region.  Scenarios serialize to a small JSON document whose
polynomial entries are explicit term records, so files stay diffable and
independent of any pickle format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .barrier import BarrierParams
from .netgraph import AgentGeometry, UncertainAdjacency, canon_edge
from .polyalg import MatrixPolynomial, Polynomial

FORMAT = "formation-scenario/1"
METHODS = ("rk4", "euler")


def _finite_polynomial(r: int, terms, where: str) -> Polynomial:
    """Polynomial of term records whose coefficients are all finite."""
    if not all(math.isfinite(float(t["coeff"])) for t in terms):
        raise ValueError(f"{where}: non-finite coefficient")
    return Polynomial.from_records(r, terms)


def check_time_grid(dt, T_end, record_every, method,
                    zero_horizon: bool = False) -> None:
    """Raise ValueError naming the first bad time-grid setting: dt and
    T_end finite and > 0 (T_end >= 0 with zero_horizon), record_every an
    integer >= 1, method one of METHODS."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt: must be finite and > 0, got {dt}")
    if not (math.isfinite(T_end) and (T_end > 0 or
                                      (zero_horizon and T_end == 0))):
        raise ValueError(f"T_end: must be finite and "
                         f"{'>=' if zero_horizon else '>'} 0, got {T_end}")
    if not (isinstance(record_every, int) and record_every >= 1):
        raise ValueError(f"record_every: must be an integer >= 1, got "
                         f"{record_every!r}")
    if method not in METHODS:
        raise ValueError(f"method: must be one of {list(METHODS)}, got "
                         f"{method!r}")


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
    method: str = "rk4"
    conv_tol: float | None = None

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        N = self.adjacency.N
        if self.tau.shape != self.positions.shape or \
                self.tau.shape != self.velocities.shape:
            raise ValueError("tau, positions, velocities shapes differ")
        if self.tau.shape[0] != N:
            raise ValueError(
                f"{self.tau.shape[0]} agents in tau but adjacency is "
                f"{N} x {N}")
        self.formation_edges = frozenset(
            canon_edge(i, j) for (i, j) in self.formation_edges)
        for (i, j) in self.formation_edges:
            if not (0 <= i < N and 0 <= j < N):
                raise ValueError(f"formation edge ({i},{j}) out of range")
        check_time_grid(self.dt, self.T_end, self.record_every, self.method)

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
            "geometry": {k: getattr(self.geometry, k)
                         for k in ("r_a", "r_c", "r_z", "r_s", "d_s",
                                   "eps")},
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
            "method": self.method,
            "conv_tol": self.conv_tol,
        }
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioSpec":
        if doc.get("format") != FORMAT:
            raise ValueError(
                f"unsupported scenario format {doc.get('format')!r}")
        tau = np.asarray(doc["tau"], dtype=float)
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
            n_weight_samples=int(doc.get("n_weight_samples", 16)),
            method=doc.get("method", "rk4"),
            conv_tol=(None if doc.get("conv_tol") is None
                      else float(doc["conv_tol"])),
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "ScenarioSpec":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _ring_offsets(n: int, radius: float) -> np.ndarray:
    ang = 2.0 * math.pi * np.arange(n) / n
    return radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _affine(r: int, const: float, linear) -> Polynomial:
    p = Polynomial.constant(r, const)
    for k, c in enumerate(linear):
        if c:
            p = p + Polynomial.variable(r, k).scale(c)
    return p


def six_agent() -> ScenarioSpec:
    """Hexagon of six agents with two-parameter uncertain ring weights.

    Ring side 2.8 sits inside [r_z, r_s - eps]; only the ring pairs are
    formation edges (the diagonals would put the collision and edge
    barriers in conflict).  Ring weights vary affinely over the unit disk
    with coefficients small enough to keep every weight positive; the
    remaining pairs carry constant unit weights and act only while inside
    sensing range."""
    geom = AgentGeometry(r_a=0.75, r_c=0.9375, r_z=2.5, r_s=8.0,
                         d_s=1.875, eps=0.1)
    tau = _ring_offsets(6, 2.8)
    edges = [(k, (k + 1) % 6) for k in range(6)]
    a = [0.30, -0.20, 0.25, -0.30, 0.15, 0.20]
    b = [-0.25, 0.15, -0.10, 0.20, -0.30, 0.10]
    entries = MatrixPolynomial.zeros(6, 6, 2)
    for k, (i, j) in enumerate(edges):
        p = _affine(2, 1.0, [a[k], b[k]])
        entries.set_entry(i, j, p)
        entries.set_entry(j, i, p)
    one = Polynomial.constant(2, 1.0)
    for i in range(6):
        for j in range(i + 1, 6):
            if canon_edge(i, j) not in {canon_edge(*e) for e in edges}:
                entries.set_entry(i, j, one)
                entries.set_entry(j, i, one)
    disk = Polynomial.constant(2, 1.0) - \
        Polynomial.variable(2, 0) * Polynomial.variable(2, 0) - \
        Polynomial.variable(2, 1) * Polynomial.variable(2, 1)
    adj = UncertainAdjacency(N=6, entries=entries, omega=[disk],
                             box=[(-1.0, 1.0), (-1.0, 1.0)])
    return ScenarioSpec(
        name="six_agent", geometry=geom, tau=tau, positions=tau.copy(),
        velocities=np.zeros((6, 2)), formation_edges=frozenset(edges),
        adjacency=adj, jitter_pos=0.2, jitter_vel=1.0,
        T_end=40.0, dt=5e-3, record_every=20, conv_tol=1e-2)


def fifty_agent() -> ScenarioSpec:
    """Fifty agents on a circle of radius 30 with one-parameter weights.

    Adjacent desired spacing is 2 * 30 * sin(pi/50), under the sensing
    radius of 5, while second neighbours sit well outside it, so the
    communication graph is exactly the ring.  The long-range geometry
    cannot satisfy the margin assumption that separates the edge and
    collision barriers, which is recorded as an explicit override."""
    geom = AgentGeometry(r_a=0.75, r_c=0.9375, r_z=2.2, r_s=5.0,
                         d_s=1.875, eps=0.1)
    tau = _ring_offsets(50, 30.0)
    edges = [(k, (k + 1) % 50) for k in range(50)]
    entries = MatrixPolynomial.zeros(50, 50, 1)
    for k, (i, j) in enumerate(edges):
        coef = 0.4 * math.cos(2.0 * math.pi * k / 50.0)
        p = _affine(1, 1.0, [coef])
        entries.set_entry(i, j, p)
        entries.set_entry(j, i, p)
    band = Polynomial.constant(1, 1.0) - \
        Polynomial.variable(1, 0) * Polynomial.variable(1, 0)
    adj = UncertainAdjacency(N=50, entries=entries, omega=[band],
                             box=[(-1.0, 1.0)])
    return ScenarioSpec(
        name="fifty_agent", geometry=geom, tau=tau, positions=tau.copy(),
        velocities=np.zeros((50, 2)), formation_edges=frozenset(edges),
        adjacency=adj,
        assumption_overrides={
            "A3": "ring spacing 3.766 with r_s=5 leaves no barrier "
                  "separation margin; collision zone is unreachable "
                  "here because the edge barrier caps formation error "
                  "at 1.234"},
        jitter_pos=0.0, jitter_vel=2.0,
        T_end=10.0, dt=1e-3, record_every=100)


def adversarial() -> ScenarioSpec:
    """Two agents closing head-on with barrier caps pinned far too low.

    The explicit barrier block bypasses cap tuning.  The caps are orders
    of magnitude below the initial kinetic energy, so the collision
    barrier cannot absorb the approach and the safety monitor must
    trip."""
    geom = AgentGeometry(r_a=0.75, r_c=0.9375, r_z=2.5, r_s=8.0,
                         d_s=1.875, eps=0.1)
    tau = np.array([[0.0, 0.0], [3.0, 0.0]])
    entries = MatrixPolynomial.zeros(2, 2, 0)
    w = Polynomial.constant(0, 0.05)
    entries.set_entry(0, 1, w)
    entries.set_entry(1, 0, w)
    adj = UncertainAdjacency(N=2, entries=entries, omega=[], box=[])
    return ScenarioSpec(
        name="adversarial", geometry=geom, tau=tau,
        positions=tau.copy(),
        velocities=np.array([[2.5, 0.0], [-2.5, 0.0]]),
        formation_edges=frozenset({(0, 1)}),
        adjacency=adj,
        barrier=BarrierParams(mu1=1e-3, mu2=1e-3, eps_hat=0.05),
        T_end=2.0, dt=1e-3, record_every=10)


BUILTIN = {"six_agent": six_agent, "fifty_agent": fifty_agent,
           "adversarial": adversarial}


def builtin_path(name: str) -> Path:
    """Path of a scenario file shipped with the package."""
    if name not in BUILTIN:
        raise KeyError(
            f"unknown scenario {name!r}; shipped: {sorted(BUILTIN)}")
    return Path(__file__).parent / "scenarios" / f"{name}.json"
