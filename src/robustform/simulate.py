"""Double-integrator formation simulation with invariant monitoring.

Agents obey x_dot = rho, rho_dot = u with the barrier-based control law.
A run samples one uncertain-weight realization, tunes (or accepts) the
barrier caps, then integrates while monitoring the invariants the design
promises: pairwise distances stay above the safety floor, formation pairs
stay inside sensing range, the composite energy never grows between
topology switches beyond integration tolerance, and switches change the
energy by exactly the entering and leaving terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .barrier import (BarrierParams, DomainViolation, TuneResult, tune_mu,
                      zone_pairs_at)
from .certifier import certify
from .netgraph import (AgentGeometry, TopologyState, canon_edge,
                       is_connected, neighbor_sets, update_edges,
                       validate_assumptions)
from .scenario import ScenarioSpec


class PreconditionError(RuntimeError):
    """A run was requested whose guarantees cannot be established."""


@dataclass
class SimState:
    """Snapshot of the closed-loop system between integration steps.

    zone_pairs is part of the state because collision terms switch on a
    detection event, not on a smooth condition: membership is frozen
    while a step integrates and refreshed afterwards."""

    t: float
    positions: np.ndarray
    velocities: np.ndarray
    topo: TopologyState
    zone_pairs: frozenset


class _PairArrays:
    """Index arrays for one mask epoch, shared by control and energy."""

    def __init__(self, topo: TopologyState, zone_pairs, tau: np.ndarray,
                 geom: AgentGeometry, G: np.ndarray):
        tau = np.asarray(tau, dtype=float)
        form = sorted(topo.formation_edges)
        self.fi = np.array([e[0] for e in form], dtype=int)
        self.fj = np.array([e[1] for e in form], dtype=int)
        tn = np.linalg.norm(tau[self.fi] - tau[self.fj], axis=1) \
            if form else np.zeros(0)
        self.r_hat = geom.r_s - tn
        zone = sorted(zone_pairs)
        self.zi = np.array([e[0] for e in zone], dtype=int)
        self.zj = np.array([e[1] for e in zone], dtype=int)
        self.z_tau = tau[self.zi] - tau[self.zj] if zone \
            else np.zeros((0, tau.shape[1]))
        self.z_tn = np.linalg.norm(self.z_tau, axis=1)
        edges = sorted(topo.edges)
        self.ei = np.array([e[0] for e in edges], dtype=int)
        self.ej = np.array([e[1] for e in edges], dtype=int)
        self.w = np.asarray(G, dtype=float)[self.ei, self.ej] \
            if edges else np.zeros(0)
        self.tau = tau
        self.geom = geom
        self.n = topo.n_agents
        self.edge_pairs = frozenset(topo.edges)
        self.zone_set = frozenset(zone_pairs)

    def _psi_e_pieces(self, y: np.ndarray, mu1: float):
        d = y[self.fi] - y[self.fj]
        q = np.linalg.norm(d, axis=1)
        D = self.r_hat - q + self.r_hat ** 2 / mu1
        bad = np.flatnonzero(D <= 0)
        if bad.size:
            k = int(bad[0])
            raise DomainViolation(
                f"edge barrier domain violated for pair "
                f"({self.fi[k]},{self.fj[k]}): q={q[k]:.6f} with "
                f"r_hat_s={self.r_hat[k]:.6f}")
        return d, q, D

    def _psi_c_pieces(self, x: np.ndarray, mu2: float):
        xd = x[self.zi] - x[self.zj]
        p = np.linalg.norm(xd, axis=1)
        gap = self.geom.d_s - self.z_tn
        D = p - self.geom.d_s + gap ** 2 / mu2
        bad = np.flatnonzero(D <= 0)
        if bad.size:
            k = int(bad[0])
            raise DomainViolation(
                f"collision barrier domain violated for pair "
                f"({self.zi[k]},{self.zj[k]}): separation {p[k]:.6f}")
        if np.any(p == 0.0):
            k = int(np.flatnonzero(p == 0.0)[0])
            raise DomainViolation(
                f"zero separation for pair ({self.zi[k]},{self.zj[k]})")
        return xd, p, D

    def control(self, positions: np.ndarray, velocities: np.ndarray,
                params: BarrierParams) -> np.ndarray:
        y = positions - self.tau
        u = np.zeros_like(positions)
        if self.fi.size:
            d, q, D = self._psi_e_pieces(y, params.mu1)
            g = ((2.0 * D + q) / D ** 2)[:, None] * d
            np.add.at(u, self.fi, -g)
            np.add.at(u, self.fj, g)
        if self.zi.size:
            xd, p, D = self._psi_c_pieces(positions, params.mu2)
            diff = p - self.z_tn
            dpsi = (2.0 * diff * D - diff ** 2) / D ** 2
            g = (dpsi / p)[:, None] * xd
            np.add.at(u, self.zi, -g)
            np.add.at(u, self.zj, g)
        if self.ei.size:
            spring = self.w[:, None] * (y[self.ei] - y[self.ej])
            damp = self.w[:, None] * (velocities[self.ei]
                                      - velocities[self.ej])
            np.add.at(u, self.ei, -(spring + damp))
            np.add.at(u, self.ej, spring + damp)
        return u

    def energy(self, positions: np.ndarray, velocities: np.ndarray,
               params: BarrierParams) -> float:
        y = positions - self.tau
        W = 0.5 * float(np.sum(velocities * velocities))
        if self.fi.size:
            _, q, D = self._psi_e_pieces(y, params.mu1)
            W += float(np.sum(q * q / D))
        if self.zi.size:
            _, p, D = self._psi_c_pieces(positions, params.mu2)
            W += float(np.sum((p - self.z_tn) ** 2 / D))
        if self.ei.size:
            d = y[self.ei] - y[self.ej]
            W += 0.5 * float(np.sum(self.w * np.sum(d * d, axis=1)))
        return W


def control_input(i: int, positions: np.ndarray, velocities: np.ndarray,
                  tau: np.ndarray, topo: TopologyState,
                  geom: AgentGeometry, G: np.ndarray,
                  params: BarrierParams, zone_pairs=None) -> np.ndarray:
    """Control for one agent from its own neighborhoods only.

    Slow reference path; the integrator uses the vectorized equivalent.
    Only rows of G and entries of positions belonging to agent i's
    sensing neighbors are read."""
    from .barrier import grad_psi_c, grad_psi_e

    positions = np.asarray(positions, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    tau = np.asarray(tau, dtype=float)
    y = positions - tau
    ns, nsf, nsz = neighbor_sets(i, positions, topo, geom)
    if zone_pairs is not None:
        nsz = {j for j in ns if canon_edge(i, j) in zone_pairs}
    u = np.zeros(positions.shape[1])
    for j in nsf:
        tn = float(np.linalg.norm(tau[i] - tau[j]))
        u -= grad_psi_e(y[i] - y[j], geom.r_s - tn, params.mu1)
    for j in nsz:
        u -= grad_psi_c(y[i] - y[j], tau[i] - tau[j], geom.d_s,
                        params.mu2)
    for j in ns:
        u -= G[i, j] * (y[i] - y[j])
        u -= G[i, j] * (velocities[i] - velocities[j])
    return u


def step(state: SimState, tau: np.ndarray, geom: AgentGeometry,
         G: np.ndarray, params: BarrierParams, dt: float,
         method: str = "rk4", _arrays: _PairArrays | None = None
         ) -> SimState:
    """Advance one step with topology and zone membership frozen.

    The masks seen by the control law are the ones in the incoming state,
    at every integrator stage; the returned state carries the refreshed
    masks evaluated at the new positions."""
    arrays = _arrays if _arrays is not None else _PairArrays(
        state.topo, state.zone_pairs, tau, geom, G)
    x, v = state.positions, state.velocities
    if method == "rk4":
        u1 = arrays.control(x, v, params)
        x2, v2 = x + 0.5 * dt * v, v + 0.5 * dt * u1
        u2 = arrays.control(x2, v2, params)
        x3, v3 = x + 0.5 * dt * v2, v + 0.5 * dt * u2
        u3 = arrays.control(x3, v3, params)
        x4, v4 = x + dt * v3, v + dt * u3
        u4 = arrays.control(x4, v4, params)
        x_new = x + dt / 6.0 * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v_new = v + dt / 6.0 * (u1 + 2.0 * u2 + 2.0 * u3 + u4)
    elif method == "euler":
        u = arrays.control(x, v, params)
        v_new = v + dt * u
        x_new = x + dt * v_new
    else:
        raise ValueError(f"unknown method {method!r}")
    t_new = state.t + dt
    topo_new = update_edges(x_new, state.topo, geom, t_new)
    zone_new = zone_pairs_at(x_new, topo_new, geom)
    return SimState(t=t_new, positions=x_new, velocities=v_new,
                    topo=topo_new, zone_pairs=zone_new)


@dataclass
class TrajectoryLog:
    """Recorded run history at the logging stride, energy at every step."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    controls: np.ndarray
    W_times: np.ndarray
    W_values: np.ndarray
    events: list = field(default_factory=list)


@dataclass
class RunResult:
    ok: bool
    failure: dict | None
    log: TrajectoryLog
    metrics: dict
    state: SimState
    params: BarrierParams
    tune: TuneResult | None
    cert: object | None
    theta: np.ndarray
    assumptions: object

    @property
    def exit_kind(self) -> str:
        if self.ok:
            return "ok"
        if self.failure and self.failure["kind"] == "domain_violation":
            return "domain"
        return "invariant"


def initial_topology(positions: np.ndarray, formation_edges,
                     geom: AgentGeometry) -> TopologyState:
    """Edge set at start: every pair inside the hysteresis-add radius."""
    positions = np.asarray(positions, dtype=float)
    N = positions.shape[0]
    fe = frozenset(canon_edge(i, j) for (i, j) in formation_edges)
    edges = set(fe)
    for i in range(N):
        for j in range(i + 1, N):
            if np.linalg.norm(positions[i] - positions[j]) \
                    <= geom.r_s - geom.eps:
                edges.add((i, j))
    return TopologyState(N, frozenset(edges), fe)


def run(scenario: ScenarioSpec, seed: int = 0, T_end: float | None = None,
        dt: float | None = None, record_every: int | None = None,
        unsafe: bool = False, certificate=None, drift_tol: float = 1e-4,
        jump_tol: float = 1e-9, method: str | None = None) -> RunResult:
    """Integrate one seeded realization of a scenario, with monitoring.

    Raises PreconditionError when the setup assumptions fail or no
    positive connectivity certificate can be produced, unless unsafe=True
    or a precomputed certificate is supplied.  Invariant violations do
    not raise: they stop the run and are reported on the result."""
    geom = scenario.geometry
    adj = scenario.adjacency
    tau = scenario.tau
    N = scenario.n_agents
    dt = scenario.dt if dt is None else dt
    T_end = scenario.T_end if T_end is None else T_end
    record_every = scenario.record_every if record_every is None \
        else record_every
    method = scenario.method if method is None else method

    rng = np.random.default_rng(seed)
    positions = scenario.positions.copy()
    velocities = scenario.velocities.copy()
    if scenario.jitter_pos > 0:
        positions += rng.uniform(-scenario.jitter_pos,
                                 scenario.jitter_pos, positions.shape)
    if scenario.jitter_vel > 0:
        velocities += rng.uniform(-scenario.jitter_vel,
                                  scenario.jitter_vel, velocities.shape)

    report = validate_assumptions(tau, scenario.formation_edges,
                                  positions, geom,
                                  overrides=scenario.assumption_overrides)
    if not report.all_pass and not unsafe:
        raise PreconditionError(
            "setup assumptions failed:\n  "
            + "\n  ".join(report.summary_lines()))

    cert = certificate
    if cert is None and not unsafe:
        cert = certify(adj)
        if not cert.connected:
            raise PreconditionError(
                f"no positive connectivity certificate: status "
                f"{cert.status}, c_star={cert.c_star}")

    # the seed fixes the draw order: the run's theta, then the tuning
    # samples; all weight matrices are then evaluated in one batch
    thetas = adj.sample_omega(rng, 1) if adj.r > 0 else np.zeros((1, 0))
    if scenario.barrier is None and adj.r > 0 \
            and scenario.n_weight_samples > 0:
        thetas = np.vstack(
            [thetas, adj.sample_omega(rng, scenario.n_weight_samples)])
    weights = adj.entries.eval_batch(thetas)
    theta, G = thetas[0], weights[0]

    topo = initial_topology(positions, scenario.formation_edges, geom)
    zone = zone_pairs_at(positions, topo, geom)
    state = SimState(t=0.0, positions=positions, velocities=velocities,
                     topo=topo, zone_pairs=zone)

    tune = None
    if scenario.barrier is not None:
        params = scenario.barrier
    else:
        tune = tune_mu(positions, velocities, tau, topo, geom, list(weights))
        params = tune.params

    n_steps = int(round(T_end / dt))
    rec_t, rec_x, rec_v, rec_u = [], [], [], []
    W_t, W_vals = [], []
    events: list = []
    failure = None
    min_dist_run = np.inf
    max_drift = 0.0
    max_jump_err = 0.0
    n_switches = 0

    def record(st: SimState, ar: _PairArrays):
        rec_t.append(st.t)
        rec_x.append(st.positions.copy())
        rec_v.append(st.velocities.copy())
        rec_u.append(ar.control(st.positions, st.velocities, params))

    iu, ju = np.triu_indices(N, k=1)

    def offdiag_min(x):
        d = np.linalg.norm(x[iu] - x[ju], axis=1)
        k = int(np.argmin(d))
        return float(d[k]), (int(iu[k]), int(ju[k])), d

    try:
        arrays = _PairArrays(topo, zone, tau, geom, G)
        W_prev = arrays.energy(positions, velocities, params)
        W_t.append(0.0)
        W_vals.append(W_prev)
        record(state, arrays)
        d0, pair0, _ = offdiag_min(positions)
        min_dist_run = d0
        if d0 <= geom.d_s:
            failure = {"kind": "safety_distance", "t": 0.0, "pair": pair0,
                       "value": d0}

        for k in range(n_steps):
            if failure is not None:
                break
            new_state = step(state, tau, geom, G, params, dt,
                             method=method, _arrays=arrays)
            x_new, v_new = new_state.positions, new_state.velocities
            t_new = new_state.t

            W_frozen = arrays.energy(x_new, v_new, params)
            drift = W_frozen - W_prev
            max_drift = max(max_drift, drift)
            if drift > drift_tol * dt:
                failure = {"kind": "energy_drift", "t": t_new,
                           "value": drift, "limit": drift_tol * dt}

            masks_changed = (new_state.topo is not state.topo or
                             new_state.zone_pairs != state.zone_pairs)
            if masks_changed:
                new_arrays = _PairArrays(new_state.topo,
                                         new_state.zone_pairs, tau, geom,
                                         G)
                W_actual = new_arrays.energy(x_new, v_new, params)
                expected = _mask_change_terms(
                    arrays, new_arrays, x_new, tau, G, geom, params)
                err = abs(W_actual - W_frozen - expected)
                max_jump_err = max(max_jump_err, err)
                if err > jump_tol * max(1.0, abs(W_actual)) \
                        and failure is None:
                    failure = {"kind": "energy_jump", "t": t_new,
                               "value": err}
                added = sorted(new_state.topo.edges - state.topo.edges)
                removed = sorted(state.topo.edges - new_state.topo.edges)
                if added or removed:
                    n_switches += 1
                    events.append({"t": t_new, "type": "switch",
                                   "added": added, "removed": removed})
                entered = sorted(new_state.zone_pairs - state.zone_pairs)
                left = sorted(state.zone_pairs - new_state.zone_pairs)
                if entered or left:
                    events.append({"t": t_new, "type": "zone",
                                   "entered": entered, "left": left})
                arrays = new_arrays
            else:
                W_actual = W_frozen

            dmin, pair, dall = offdiag_min(x_new)
            min_dist_run = min(min_dist_run, dmin)
            if dmin <= geom.d_s and failure is None:
                failure = {"kind": "safety_distance", "t": t_new,
                           "pair": pair, "value": dmin}
            if failure is None:
                for (i, j) in state.topo.formation_edges:
                    dij = float(np.linalg.norm(x_new[i] - x_new[j]))
                    if dij >= geom.r_s:
                        failure = {"kind": "formation_edge_break",
                                   "t": t_new, "pair": (i, j),
                                   "value": dij}
                        break

            state = new_state
            W_prev = W_actual
            W_t.append(t_new)
            W_vals.append(W_actual)

            if (k + 1) % record_every == 0 or k == n_steps - 1 \
                    or failure is not None:
                record(state, arrays)
                if failure is None and \
                        not is_connected(N, state.topo.edges):
                    failure = {"kind": "disconnected", "t": t_new}
    except DomainViolation as err:
        failure = {"kind": "domain_violation", "t": state.t,
                   "detail": str(err)}
        events.append({"t": state.t, "type": "domain_violation",
                       "detail": str(err)})

    if failure is not None:
        events.append({"t": failure["t"], "type": "failure", **{
            k: v for k, v in failure.items() if k != "t"}})

    log = TrajectoryLog(
        times=np.array(rec_t), positions=np.array(rec_x),
        velocities=np.array(rec_v), controls=np.array(rec_u),
        W_times=np.array(W_t), W_values=np.array(W_vals), events=events)

    fi = np.array([e[0] for e in sorted(state.topo.formation_edges)],
                  dtype=int)
    fj = np.array([e[1] for e in sorted(state.topo.formation_edges)],
                  dtype=int)
    y = state.positions - tau
    form_err = float(np.max(np.linalg.norm(y[fi] - y[fj], axis=1))) \
        if fi.size else 0.0
    vel_dis = float(np.max(np.linalg.norm(
        state.velocities[iu] - state.velocities[ju], axis=1))) \
        if N > 1 else 0.0
    metrics = {
        "t_final": state.t,
        "n_steps_taken": max(0, len(W_vals) - 1),
        "formation_error": form_err,
        "velocity_disagreement": vel_dis,
        "min_distance": float(min_dist_run),
        "n_switches": n_switches,
        "final_W": float(W_vals[-1]) if W_vals else float("nan"),
        "max_energy_drift": float(max_drift),
        "max_energy_jump_error": float(max_jump_err),
        "failure": failure,
    }
    return RunResult(ok=failure is None, failure=failure, log=log,
                     metrics=metrics, state=state, params=params,
                     tune=tune, cert=cert, theta=theta,
                     assumptions=report)


def _mask_change_terms(old: _PairArrays, new: _PairArrays,
                       positions: np.ndarray, tau: np.ndarray,
                       G: np.ndarray, geom: AgentGeometry,
                       params: BarrierParams) -> float:
    """Exact energy difference induced by a mask change at fixed state."""
    from .barrier import psi_c

    y = positions - tau
    total = 0.0
    for (i, j) in new.zone_set - old.zone_set:
        total += psi_c(float(np.linalg.norm(positions[i] - positions[j])),
                       float(np.linalg.norm(tau[i] - tau[j])), geom.d_s,
                       params.mu2)
    for (i, j) in old.zone_set - new.zone_set:
        total -= psi_c(float(np.linalg.norm(positions[i] - positions[j])),
                       float(np.linalg.norm(tau[i] - tau[j])), geom.d_s,
                       params.mu2)
    for (i, j) in new.edge_pairs - old.edge_pairs:
        d = y[i] - y[j]
        total += 0.5 * G[i, j] * float(d @ d)
    for (i, j) in old.edge_pairs - new.edge_pairs:
        d = y[i] - y[j]
        total -= 0.5 * G[i, j] * float(d @ d)
    return total
