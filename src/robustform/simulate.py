"""Double-integrator formation simulation with invariant monitoring.

Agents obey x_dot = rho, rho_dot = u with the barrier-based control law.
A run samples one uncertain-weight realization, tunes (or accepts) the
barrier caps, then integrates with the classical fourth-order Runge-Kutta
scheme while monitoring the invariants the design promises: pairwise
distances stay above the safety floor, formation pairs stay inside
sensing range, the composite energy never grows between topology switches
beyond integration tolerance, and switches change the energy by exactly
the entering and leaving terms.

The integrator carries one stacked state z = [x, v] (2 x N x d), so each
RK4 stage is one array update.  Energy and rate come from barrier.PairArrays,
built once per mask epoch: its Point at a step's end point is evaluated
once, and the energy monitor, the record and the next step's first stage
all read it.  Each step computes one pair-distance matrix at the new
positions; the edge and zone masks and the safety and edge-break monitors
all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .barrier import (TUNE_SAMPLES, BarrierParams, DomainViolation,
                      PairArrays, Point, TuneError, TuneResult, tune_mu,
                      zone_pairs_at)
from .certifier import Certificate, certify, refusals
from .netgraph import (TopologyState, pair_distances, update_edges,
                       validate_assumptions)
from .scenario import ScenarioSpec, step_count


# monitor limits: energy rise per step DRIFT_TOL * dt with the masks frozen;
# mask-change energy jump error JUMP_TOL * max(1, |W|)
DRIFT_TOL = 1e-4
JUMP_TOL = 1e-9


class PreconditionError(RuntimeError):
    """A run was requested whose guarantees cannot be established."""


@dataclass
class SimState:
    """Snapshot of the closed-loop system between integration steps.

    z is the stacked state [positions, velocities], 2 x N x d.  The
    zone_pairs mask is part of the state because collision terms switch on
    a detection event, not on a smooth condition: membership is frozen
    while a step integrates and refreshed afterwards.  distances is
    pair_distances(positions); the masks were read off it."""

    t: float
    z: np.ndarray
    topo: TopologyState
    zone_pairs: np.ndarray
    distances: np.ndarray

    @property
    def positions(self) -> np.ndarray:
        return self.z[0]

    @property
    def velocities(self) -> np.ndarray:
        return self.z[1]


def step(state: SimState, point: Point, dt: float) -> SimState:
    """Advance one classical RK4 step with topology and zone membership
    frozen.

    point is the epoch of the incoming state's masks at state.z; its rate
    is the first stage, and the control law sees those masks at every
    stage.  The returned state carries the refreshed masks, read off the
    one distance matrix of the new positions."""
    z, arrays = state.z, point.arrays
    k1 = point.rate()
    k2 = Point(arrays, z + 0.5 * dt * k1).rate()
    k3 = Point(arrays, z + 0.5 * dt * k2).rate()
    k4 = Point(arrays, z + dt * k3).rate()
    z_new = z + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    dist = pair_distances(z_new[0])
    topo_new = update_edges(dist, state.topo, arrays.geom)
    zone_new = zone_pairs_at(dist, topo_new, arrays.geom)
    return SimState(t=state.t + dt, z=z_new, topo=topo_new,
                    zone_pairs=zone_new, distances=dist)


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
    cert: Certificate | None
    theta: np.ndarray


def run(scenario: ScenarioSpec, seed: int = 0, T_end: float | None = None,
        unsafe: bool = False,
        certificate: Certificate | None = None) -> RunResult:
    """Integrate one seeded realization of a scenario, with monitoring.

    The step is the scenario's dt.  Raises ValueError naming a T_end
    that is not finite and >= 0 (T_end = 0 records the initial state
    only) or that asks for more than scenario.MAX_STEPS steps, before any
    state is allocated.  Given no certificate, a run that is not unsafe
    certifies the scenario itself.  Raises PreconditionError when the
    setup assumptions fail or when the certificate, supplied or made, has
    refusals (certifier.refusals), unless unsafe=True; and also when the
    barriers are not defined at the formation (a formation pair desired no
    closer than r_s, or any pair no farther than d_s) or the caps cannot
    be tuned.  Invariant violations do not raise: they stop the run and
    are reported on the result."""
    geom = scenario.geometry
    adj = scenario.adjacency
    tau = scenario.tau
    N = scenario.n_agents
    dt = scenario.dt
    if T_end is None:
        T_end = scenario.T_end
    elif not (math.isfinite(T_end) and T_end >= 0):
        raise ValueError(f"T_end: must be finite and >= 0, got {T_end!r}")
    n_steps = step_count(T_end, dt)

    rng = np.random.default_rng(seed)
    positions = scenario.positions.copy()
    velocities = scenario.velocities.copy()
    if scenario.jitter_pos > 0:
        positions += rng.uniform(-scenario.jitter_pos,
                                 scenario.jitter_pos, positions.shape)
    if scenario.jitter_vel > 0:
        velocities += rng.uniform(-scenario.jitter_vel,
                                  scenario.jitter_vel, velocities.shape)

    passed, lines = validate_assumptions(
        tau, scenario.formation, positions, geom,
        overrides=scenario.assumption_overrides)
    if not passed and not unsafe:
        raise PreconditionError(
            "setup assumptions failed:\n  " + "\n  ".join(lines))

    # the barriers' domain: the edge-keeping barrier of a formation pair is
    # defined only below r_s, the collision barrier of a pair above d_s
    d_tau = pair_distances(tau)
    fi, fj = np.nonzero(scenario.formation)
    for i, j, d in zip(fi, fj, d_tau[fi, fj]):
        if d >= geom.r_s:
            raise PreconditionError(
                f"formation pair ({i},{j}): desired distance {d:.6g} is "
                f"not below r_s={geom.r_s}")
    close = np.argwhere(np.triu(d_tau <= geom.d_s, 1))
    if close.size:
        i, j = close[0]
        raise PreconditionError(
            f"pair ({i},{j}): desired distance {d_tau[i, j]:.6g} is not "
            f"above d_s={geom.d_s}")

    # the seed fixes the draw order: the run's theta, then the tuning
    # samples; all weight matrices are then evaluated in one batch.  The
    # draw comes before the certificate gate, which uses no randomness, so
    # that a region too small to sample fails before any solve
    thetas = adj.sample_omega(rng, 1)
    if scenario.barrier is None and adj.r > 0:
        thetas = np.vstack([thetas, adj.sample_omega(rng, TUNE_SAMPLES)])
    weights = adj.entries.eval_batch(thetas)
    theta, G = thetas[0], weights[0]

    cert = certificate
    if cert is not None and not isinstance(cert, Certificate):
        raise TypeError(f"certificate must be a Certificate, got "
                        f"{type(cert).__name__}")
    if not unsafe:
        if cert is None:
            res = certify(adj)
            cert, reasons = res.certificate, res.refusals
        else:
            reasons = refusals(cert, adj)
        if reasons:
            raise PreconditionError(
                "no connectivity certificate: " + "; ".join(reasons))

    # the edges at start: the formation edges plus one hysteresis update
    dist = pair_distances(positions)
    topo = update_edges(dist, TopologyState(scenario.formation,
                                            scenario.formation), geom)
    zone = zone_pairs_at(dist, topo, geom)
    state = SimState(t=0.0, z=np.stack([positions, velocities]), topo=topo,
                     zone_pairs=zone, distances=dist)

    tune = None
    if scenario.barrier is not None:
        params = scenario.barrier
    else:
        try:
            tune = tune_mu(positions, velocities, tau, topo, geom,
                           list(weights))
        except TuneError as err:
            raise PreconditionError(f"barrier cap tuning: {err}") from err
        params = tune.params

    rec_t, rec_x, rec_v, rec_u = [], [], [], []
    W_t, W_vals = [], []
    events: list = []
    min_dist_run = np.inf  # stays so if the initial energy already fails
    max_drift = 0.0
    max_jump_err = 0.0
    n_switches = 0

    # no state array is written in place, so the record keeps views
    def record(st: SimState, pt: Point):
        rec_t.append(st.t)
        rec_x.append(st.positions)
        rec_v.append(st.velocities)
        rec_u.append(pt.rate()[1])

    upper = np.flatnonzero(np.triu(np.ones((N, N)), 1))  # i < j, flat
    formation_at = np.ravel_multi_index((fi, fj), (N, N))

    def closest_pair(st: SimState):
        """The smallest pair distance of st and, if <= d_s, its failure."""
        d = st.distances.take(upper)
        k = int(d.argmin())
        dmin = float(d[k])
        if dmin <= geom.d_s:
            return dmin, {"kind": "safety_distance", "t": st.t,
                          "pair": divmod(int(upper[k]), N), "value": dmin}
        return dmin, None

    arrays = PairArrays(topo, zone, tau, geom, G, params)
    try:
        point = Point(arrays, state.z)
        W_prev = point.energy()
        W_t.append(0.0)
        W_vals.append(W_prev)
        record(state, point)
        min_dist_run, failure = closest_pair(state)
        if failure is None and not math.isfinite(W_prev):
            failure = {"kind": "non_finite", "t": state.t}

        for k in range(n_steps):
            if failure is not None:
                break
            new_state = step(state, point, dt)
            t_new = new_state.t

            point = Point(arrays, new_state.z)
            W_frozen = point.energy()
            # W sums every squared velocity; a position goes non-finite
            # only through a stage velocity, which z then holds too
            if not math.isfinite(W_frozen):
                failure = {"kind": "non_finite", "t": t_new}
                break
            drift = W_frozen - W_prev
            max_drift = max(max_drift, drift)
            if drift > DRIFT_TOL * dt:
                failure = {"kind": "energy_drift", "t": t_new,
                           "value": drift, "limit": DRIFT_TOL * dt}

            old_e, new_e = state.topo.edges, new_state.topo.edges
            old_z, new_z = state.zone_pairs, new_state.zone_pairs
            # update_edges returns the incoming topology when it keeps it
            edges_changed = new_state.topo is not state.topo
            zone_changed = np.count_nonzero(new_z ^ old_z) > 0
            if edges_changed or zone_changed:
                new_arrays = PairArrays(new_state.topo, new_z, tau, geom, G,
                                        params)
                point = Point(new_arrays, new_state.z)
                W_actual = point.energy()
                expected = _mask_change_terms(arrays, new_arrays,
                                              new_state.z, G, params)
                err = abs(W_actual - W_frozen - expected)
                max_jump_err = max(max_jump_err, err)
                if err > JUMP_TOL * max(1.0, abs(W_actual)) \
                        and failure is None:
                    failure = {"kind": "energy_jump", "t": t_new,
                               "value": err}
                if edges_changed:
                    n_switches += 1
                    events.append({"t": t_new, "type": "switch",
                                   "added": _pairs(new_e & ~old_e),
                                   "removed": _pairs(old_e & ~new_e)})
                if zone_changed:
                    events.append({"t": t_new, "type": "zone",
                                   "entered": _pairs(new_z & ~old_z),
                                   "left": _pairs(old_z & ~new_z)})
                arrays = new_arrays
            else:
                W_actual = W_frozen

            dmin, too_close = closest_pair(new_state)
            min_dist_run = min(min_dist_run, dmin)
            failure = failure or too_close
            if failure is None:
                d_form = new_state.distances.take(formation_at)
                if np.count_nonzero(d_form >= geom.r_s):
                    b = int((d_form >= geom.r_s).argmax())  # the first
                    failure = {"kind": "formation_edge_break", "t": t_new,
                               "pair": (int(fi[b]), int(fj[b])),
                               "value": float(d_form[b])}

            state = new_state
            W_prev = W_actual
            W_t.append(t_new)
            W_vals.append(W_actual)

            if (k + 1) % scenario.record_every == 0 or k == n_steps - 1 \
                    or failure is not None:
                record(state, point)
                if failure is None and not state.topo.connected:
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

    form_err = float(np.max(pair_distances(state.positions - tau)[fi, fj])) \
        if fi.size else 0.0
    metrics = {
        "t_final": state.t,
        "n_steps_taken": max(0, len(W_vals) - 1),
        "formation_error": form_err,
        "velocity_disagreement": float(np.max(
            pair_distances(state.velocities))),
        "min_distance": float(min_dist_run),
        "n_switches": n_switches,
        "final_W": float(W_vals[-1]) if W_vals else float("nan"),
        "max_energy_drift": float(max_drift),
        "max_energy_jump_error": float(max_jump_err),
        "failure": failure,
    }
    return RunResult(ok=failure is None, failure=failure, log=log,
                     metrics=metrics, state=state, params=params,
                     tune=tune, cert=cert, theta=theta)


def _pairs(mask: np.ndarray) -> list:
    """The (i, j) pairs of a mask, in row-major order."""
    return [tuple(p) for p in np.argwhere(mask).tolist()]


def _mask_change_terms(old: PairArrays, new: PairArrays, z: np.ndarray,
                       G: np.ndarray, params: BarrierParams) -> float:
    """Exact energy difference induced by a mask change at fixed state.

    The collision and spring terms of the pairs that entered the masks,
    minus those of the pairs that left them, each set evaluated as a
    PairArrays epoch of its own at z's positions, at rest."""
    rest = z.copy()
    rest[1] = 0.0

    def terms(a: PairArrays, b: PairArrays) -> float:
        edges = a.topo.edges & ~b.topo.edges
        return Point(PairArrays(TopologyState(edges, np.zeros_like(edges)),
                                a.zone & ~b.zone, a.tau, a.geom, G, params),
                     rest).energy()

    return terms(new, old) - terms(old, new)
