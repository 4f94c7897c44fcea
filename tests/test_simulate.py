"""Controller structure, integrator behavior, and monitored runs."""

import dataclasses
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

import oracles
from robustform import simulate
from robustform.barrier import BarrierParams, PairArrays, Point
from robustform.netgraph import (AgentGeometry, TopologyState,
                                 pair_distances, update_edges)
from robustform.scenario import ScenarioSpec, builtin_path
from robustform.simulate import PreconditionError, SimState, run, step
from robustform.barrier import zone_pairs_at
from robustform.certifier import (Certificate, CertifierError, certify,
                                  verify_certificate)


GEOM = AgentGeometry(r_a=0.75, r_c=0.9375, r_z=2.5, r_s=8.0,
                     d_s=1.875, eps=0.1)
PARAMS = BarrierParams(5.0, 5.0)


def triangle_system():
    tau = np.array([[0.0, 0.0], [3.0, 0.0], [1.5, 2.9]])
    edges = oracles.pair_mask(3, [(0, 1), (0, 2), (1, 2)])
    topo = TopologyState(edges=edges, formation=edges)
    G = np.ones((3, 3)) - np.eye(3)
    return tau, topo, G


def hexagon_system():
    s = ScenarioSpec.load(builtin_path("six_agent"))
    G = np.asarray(s.adjacency.entries(np.zeros(2)), dtype=float)
    topo = update_edges(pair_distances(s.tau),
                        TopologyState(s.formation, s.formation), s.geometry)
    return s.tau, topo, G


def control(arrays, positions, velocities):
    """The control law u = -grad W of an epoch: the velocity half of its
    rate at the stacked state [positions, velocities]."""
    return Point(arrays, np.stack([positions, velocities])).rate()[1]


def energy(arrays, positions, velocities):
    return Point(arrays, np.stack([positions, velocities])).energy()


def const_pair_scenario(positions, velocities, weight=1.0, tau=None,
                        barrier=None, **kw):
    if tau is None:
        tau = np.array([[0.0, 0.0], [3.0, 0.0]])
    adj = oracles.adjacency(2, {(0, 1): {(): weight}})
    return ScenarioSpec(
        name="pair", geometry=GEOM, tau=tau,
        positions=np.asarray(positions, dtype=float),
        velocities=np.asarray(velocities, dtype=float),
        formation=oracles.pair_mask(2, [(0, 1)]), adjacency=adj,
        barrier=barrier, **kw)


# ----------------------------------------------------------- controller

def test_control_zero_at_equilibrium():
    tau, topo, G = triangle_system()
    common = np.array([1.2, -0.4])
    vel = np.tile(common, (3, 1))
    arrays = PairArrays(topo, oracles.pair_mask(3, []), tau, GEOM, G, PARAMS)
    u = control(arrays, tau.copy(), vel)
    assert np.allclose(u, 0.0, atol=1e-14)
    for i in range(3):
        ui = oracles.control_input(i, tau, vel, tau, topo, GEOM, G, PARAMS)
        assert np.allclose(ui, 0.0, atol=1e-14)


def test_control_pair_antisymmetry():
    rng = np.random.default_rng(2)
    tau = np.array([[0.0, 0.0], [3.0, 0.0]])
    mask = oracles.pair_mask(2, [(0, 1)])
    topo = TopologyState(mask, mask)
    G = np.array([[0.0, 1.4], [1.4, 0.0]])
    for _ in range(5):
        pos = tau + 0.5 * rng.normal(size=(2, 2))
        vel = rng.normal(size=(2, 2))
        zone = zone_pairs_at(pair_distances(pos), topo, GEOM)
        arrays = PairArrays(topo, zone, tau, GEOM, G, PARAMS)
        u = control(arrays, pos, vel)
        assert np.allclose(u[0], -u[1], atol=1e-12)


def test_control_sums_to_zero_with_zone_active():
    tau, topo, G = hexagon_system()
    pos = tau.copy()
    pos[1] = pos[0] + np.array([2.3, 0.0])  # inside r_z
    vel = np.random.default_rng(4).normal(size=(6, 2))
    geom = ScenarioSpec.load(builtin_path("six_agent")).geometry
    zone = zone_pairs_at(pair_distances(pos), topo, geom)
    assert zone[0, 1]
    arrays = PairArrays(topo, zone, tau, geom, G, PARAMS)
    u = control(arrays, pos, vel)
    assert np.allclose(u.sum(axis=0), 0.0, atol=1e-12)


def test_vectorized_control_matches_per_agent():
    rng = np.random.default_rng(9)
    s = ScenarioSpec.load(builtin_path("six_agent"))
    tau, topo, G = hexagon_system()
    for _ in range(5):
        pos = tau + 0.4 * rng.normal(size=(6, 2))
        vel = rng.normal(size=(6, 2))
        zone = zone_pairs_at(pair_distances(pos), topo, s.geometry)
        arrays = PairArrays(topo, zone, tau, s.geometry, G, PARAMS)
        u_fast = control(arrays, pos, vel)
        u_ref = np.stack([
            oracles.control_input(i, pos, vel, tau, topo, s.geometry, G,
                                  PARAMS, zone_pairs=zone)
            for i in range(6)])
        assert np.allclose(u_fast, u_ref, atol=1e-11)


def test_control_reads_only_neighbors():
    tau, _, G = hexagon_system()
    s = ScenarioSpec.load(builtin_path("six_agent"))
    # topology where agent 0 talks to 1 and 2 only
    edges = oracles.pair_mask(6, [(0, 1), (0, 2), (3, 4), (4, 5)])
    topo = TopologyState(edges, oracles.pair_mask(6, [(0, 1)]))
    rng = np.random.default_rng(12)
    pos = tau + 0.3 * rng.normal(size=(6, 2))
    vel = rng.normal(size=(6, 2))
    zone = oracles.pair_mask(6, [])
    u0 = control(PairArrays(topo, zone, tau, s.geometry, G, PARAMS), pos,
                 vel)[0]
    pos2, vel2, G2 = pos.copy(), vel.copy(), G.copy()
    pos2[3:] += 50.0
    vel2[3:] = rng.normal(size=(3, 2)) * 10
    G2[0, 4] = G2[4, 0] = 999.0  # not an edge of this topology
    u0b = control(PairArrays(topo, zone, tau, s.geometry, G2, PARAMS),
                  pos2, vel2)[0]
    assert np.allclose(u0, u0b, atol=0.0)


# ----------------------------------------------------------- integrator

def test_free_motion_advances_exactly():
    tau = np.array([[0.0, 0.0], [100.0, 0.0]])
    none = oracles.pair_mask(2, [])
    topo = TopologyState(none, none)
    state = SimState(t=0.0, z=np.stack([tau, [[1.0, -2.0], [0.5, 0.25]]]),
                     topo=topo, zone_pairs=none,
                     distances=pair_distances(tau))
    arrays = PairArrays(topo, none, tau, GEOM, np.zeros((2, 2)), PARAMS)
    new = step(state, Point(arrays, state.z), dt=0.01)
    assert np.allclose(new.positions,
                       state.positions + 0.01 * state.velocities,
                       rtol=1e-13, atol=0.0)
    assert np.array_equal(new.velocities, state.velocities)


def test_step_refreshes_topology_after_integration():
    tau = np.array([[0.0, 0.0], [7.95, 0.0]])
    none = oracles.pair_mask(2, [])
    topo = TopologyState(none, none)
    state = SimState(t=0.0, z=np.stack([tau, [[0.5, 0.0], [-0.5, 0.0]]]),
                     topo=topo, zone_pairs=none,
                     distances=pair_distances(tau))
    arrays = PairArrays(topo, none, tau, GEOM, np.zeros((2, 2)), PARAMS)
    new = step(state, Point(arrays, state.z), dt=0.1)
    assert not state.topo.edges.any()
    assert oracles.pairs(new.topo.edges) == [(0, 1)]
    assert np.array_equal(new.distances, pair_distances(new.positions))


def test_energy_fast_path_matches_reference():
    rng = np.random.default_rng(21)
    s = ScenarioSpec.load(builtin_path("six_agent"))
    tau, topo, G = hexagon_system()
    for _ in range(5):
        pos = tau + 0.4 * rng.normal(size=(6, 2))
        vel = rng.normal(size=(6, 2))
        zone = zone_pairs_at(pair_distances(pos), topo, s.geometry)
        arrays = PairArrays(topo, zone, tau, s.geometry, G, PARAMS)
        fast = energy(arrays, pos, vel)
        ref = oracles.energy_W(pos, vel, tau, topo, s.geometry, G, PARAMS,
                               zone_pairs=zone)
        assert fast == pytest.approx(ref, rel=1e-12)


def test_energy_decreases_over_step():
    rng = np.random.default_rng(30)
    s = ScenarioSpec.load(builtin_path("six_agent"))
    tau, topo, G = hexagon_system()
    pos = tau + 0.2 * rng.normal(size=(6, 2))
    vel = rng.normal(size=(6, 2))
    zone = zone_pairs_at(pair_distances(pos), topo, s.geometry)
    arrays = PairArrays(topo, zone, tau, s.geometry, G, PARAMS)
    state = SimState(0.0, np.stack([pos, vel]), topo, zone,
                     pair_distances(pos))
    W0 = energy(arrays, pos, vel)
    new = step(state, Point(arrays, state.z), dt=1e-3)
    W1 = energy(arrays, new.positions, new.velocities)
    assert W1 < W0


def test_rk4_error_is_fourth_order():
    # halving dt cuts the error against a fine-step reference by 2^4; the
    # step sizes keep the error far above rounding, and nothing switches
    tau, topo, G = triangle_system()
    rng = np.random.default_rng(40)
    pos0 = tau + 0.2 * rng.normal(size=(3, 2))
    vel0 = 0.5 * rng.normal(size=(3, 2))
    zone = oracles.pair_mask(3, [])
    arrays = PairArrays(topo, zone, tau, GEOM, G, PARAMS)

    def integrate(dt, T=0.4):
        state = SimState(0.0, np.stack([pos0, vel0]), topo, zone,
                         pair_distances(pos0))
        for _ in range(int(round(T / dt))):
            state = step(state, Point(arrays, state.z), dt)
            assert state.topo is topo  # no switching in this window
            assert np.array_equal(state.zone_pairs, zone)
        return state

    ref = integrate(1e-3)
    err = {}
    for dt in (4e-2, 2e-2):
        st = integrate(dt)
        err[dt] = np.linalg.norm(st.positions - ref.positions) + \
            np.linalg.norm(st.velocities - ref.velocities)
    assert err[2e-2] > 1e-9
    assert 12.0 <= err[4e-2] / err[2e-2] <= 20.0


# ----------------------------------------------------------------- runs

def test_run_adversarial_trips_safety_monitor():
    res = run(ScenarioSpec.load(builtin_path("adversarial")), seed=1)
    assert not res.ok
    assert res.failure["kind"] == "safety_distance"
    assert 0.0 < res.failure["t"] < 0.5
    assert res.failure["value"] <= GEOM.d_s
    assert res.metrics["min_distance"] <= GEOM.d_s


def test_run_domain_violation_reported():
    # swapped positions: formation error 6 exceeds the barrier domain
    # although the pair distance is fine
    sc = const_pair_scenario(
        positions=np.array([[3.0, 0.0], [0.0, 0.0]]),
        velocities=np.zeros((2, 2)),
        barrier=BarrierParams(1e6, 1e6), T_end=1.0)
    res = run(sc, seed=0)
    assert not res.ok
    assert res.failure["kind"] == "domain_violation"


def test_run_refuses_uncertifiable_graph():
    # third agent with zero-weight links: weighted graph is disconnected
    tau = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 100.0]])
    adj = oracles.adjacency(3, {(0, 1): {(): 1.0}})
    sc = ScenarioSpec(name="split", geometry=GEOM, tau=tau,
                      positions=tau.copy(), velocities=np.zeros((3, 2)),
                      formation=oracles.pair_mask(3, [(0, 1)]),
                      adjacency=adj, T_end=0.5)
    with pytest.raises(PreconditionError, match="certificate"):
        run(sc, seed=0)
    res = run(sc, seed=0, unsafe=True)
    assert not res.ok
    assert res.failure["kind"] == "disconnected"


def test_run_assumption_gate_and_override():
    # desired distance below r_z violates the first setup assumption
    tau = np.array([[0.0, 0.0], [2.0, 0.0]])
    sc = const_pair_scenario(positions=tau.copy(),
                             velocities=np.zeros((2, 2)), tau=tau,
                             T_end=0.2)
    with pytest.raises(PreconditionError, match="A1"):
        run(sc, seed=0)
    sc2 = const_pair_scenario(positions=tau.copy(),
                              velocities=np.zeros((2, 2)), tau=tau,
                              T_end=0.2,
                              assumption_overrides={"A1": "testing"})
    res = run(sc2, seed=0)
    assert res.ok


def test_scenario_formation_is_a_read_only_upper_mask():
    sc = const_pair_scenario(positions=np.array([[0.0, 0.0], [3.0, 0.0]]),
                             velocities=np.zeros((2, 2)))
    assert oracles.pairs(sc.formation) == [(0, 1)]
    assert not sc.formation.flags.writeable
    with pytest.raises(ValueError, match="formation: need a 2 x 2 mask"):
        dataclasses.replace(sc, formation=sc.formation.T)


def test_run_accepts_precomputed_certificate():
    sc = ScenarioSpec.load(builtin_path("six_agent"))
    result = certify(sc.adjacency)
    assert result.connected
    cert = result.certificate
    res = run(sc, seed=5, T_end=0.5, certificate=cert)
    assert res.ok
    assert res.cert is cert


# stored with the benchmark: n_agents 50, c* 3.7e-3
FIFTY_CERT = Path(__file__).parents[1] / "bench" / \
    "fifty_agent_certificate.json"


@pytest.mark.parametrize("scenario, c_star, message", [
    ("six_agent", None, "certificate is for 50 agents, adjacency has 6"),
    ("fifty_agent", 5e-7, "does not clear its threshold 1e-06"),
    ("fifty_agent", 123.0, "Gram identity violated")])
def test_run_refuses_a_certificate_that_does_not_fit(scenario, c_star,
                                                     message):
    cert = Certificate.load(FIFTY_CERT)
    if c_star is not None:
        cert = dataclasses.replace(cert, c_star=c_star)
    sc = ScenarioSpec.load(builtin_path(scenario))
    with pytest.raises(PreconditionError, match=message):
        run(sc, seed=0, T_end=0.1, certificate=cert)
    assert run(sc, seed=0, T_end=0.1, certificate=cert, unsafe=True) \
        .cert is cert


def _non_finite(cert, field, value):
    """cert with value at the first entry of field (R_bars: of R_bars[0])."""
    if field == "c_star":
        return dataclasses.replace(cert, c_star=value)
    if field == "R_bars":
        R = [X.copy() for X in cert.R_bars]
        R[0][0, 0] = value
        return dataclasses.replace(cert, R_bars=R)
    X = getattr(cert, field).copy()
    X.flat[0] = value
    return dataclasses.replace(cert, **{field: X})


@pytest.mark.parametrize("field, value, reasons", [
    ("delta", np.nan, ["delta is not finite"]),
    ("R_bars", np.inf, ["R_bars[0] is not finite"]),
    ("R_bars", np.nan, ["R_bars[0] is not finite"]),
    ("P_bar", np.nan, ["P_bar is not finite"]),
    ("c_star", np.nan, ["c_star=nan does not clear its threshold 1e-06",
                        "c_star is not finite"]),
    ("c_star", np.inf, ["c_star is not finite"])],
    ids=["delta-nan", "R_bars-inf", "R_bars-nan", "P_bar-nan", "c_star-nan",
         "c_star-inf"])
def test_run_refuses_a_non_finite_certificate(field, value, reasons):
    # the replay's eigenvalue solver used to raise LinAlgError on these, and
    # a nan in a stored matrix was refused as a matrix of the wrong shape
    sc = ScenarioSpec.load(builtin_path("six_agent"))
    cert = _non_finite(certify(sc.adjacency).certificate, field, value)
    with pytest.raises(CertifierError) as err:
        verify_certificate(cert, sc.adjacency, n_samples=0)
    assert str(err.value) == reasons[-1]
    with pytest.raises(PreconditionError) as err:
        run(sc, seed=0, T_end=0.1, certificate=cert)
    assert str(err.value) == "no connectivity certificate: " \
        + "; ".join(reasons)


def test_run_takes_only_a_certificate():
    sc = ScenarioSpec.load(builtin_path("six_agent"))
    with pytest.raises(TypeError, match="must be a Certificate"):
        run(sc, seed=0, T_end=0.1, certificate={"c_star": 1.0})


def test_run_seed_determinism():
    sc = ScenarioSpec.load(builtin_path("six_agent"))
    cert = certify(sc.adjacency).certificate
    a = run(sc, seed=7, T_end=0.5, certificate=cert)
    b = run(sc, seed=7, T_end=0.5, certificate=cert)
    c = run(sc, seed=8, T_end=0.5, certificate=cert)
    assert np.array_equal(a.state.positions, b.state.positions)
    assert np.array_equal(a.theta, b.theta)
    assert not np.array_equal(a.theta, c.theta)


def test_run_log_shapes_and_metrics():
    sc = ScenarioSpec.load(builtin_path("six_agent"))
    cert = certify(sc.adjacency).certificate
    res = run(sc, seed=3, T_end=1.0, certificate=cert)
    n = res.log.times.shape[0]
    assert res.log.positions.shape == (n, 6, 2)
    assert res.log.velocities.shape == (n, 6, 2)
    assert res.log.controls.shape == (n, 6, 2)
    n_steps = int(round(1.0 / sc.dt))
    assert res.log.W_times.shape == (n_steps + 1,)
    assert res.log.W_values.shape == (n_steps + 1,)
    for key in ("formation_error", "velocity_disagreement",
                "min_distance", "n_switches", "final_W",
                "max_energy_drift"):
        assert key in res.metrics
    assert res.metrics["min_distance"] > sc.geometry.d_s
    # energy never grows between switches beyond the monitor bound
    assert res.metrics["max_energy_drift"] <= 1e-4 * sc.dt


def test_run_time_grid_overrides():
    sc = ScenarioSpec.load(builtin_path("six_agent"))
    cert = certify(sc.adjacency).certificate
    res = run(dataclasses.replace(sc, dt=0.01), seed=3, T_end=0.1,
              certificate=cert)
    assert res.metrics["n_steps_taken"] == 10
    assert res.metrics["t_final"] == pytest.approx(0.1)


def test_run_never_reports_ok_on_a_non_finite_state():
    # past the scenario loader, an infinite r_s makes the edge barrier's
    # gradient nan; the run stops at the first step that is not finite
    sc = ScenarioSpec.load(builtin_path("adversarial"))
    sc = dataclasses.replace(sc, geometry=dataclasses.replace(
        sc.geometry, r_s=np.inf))
    with np.errstate(invalid="ignore"):
        res = run(sc, T_end=0.05)
    assert not res.ok
    assert res.failure == {"kind": "non_finite", "t": sc.dt}
    assert np.isfinite(res.metrics["final_W"])


def test_run_trips_formation_edge_break():
    # caps of 1 cannot hold a pair flying apart with kinetic energy 100;
    # the edge barrier's domain reaches q = 30, so the pair first crosses
    # the sensing radius and the edge-break monitor must trip
    sc = const_pair_scenario(
        positions=np.array([[0.0, 0.0], [3.0, 0.0]]),
        velocities=np.array([[-10.0, 0.0], [10.0, 0.0]]),
        barrier=BarrierParams(1.0, 1.0), T_end=2.0)
    res = run(sc, seed=0)
    assert res.failure["kind"] == "formation_edge_break"
    assert res.failure["pair"] == (0, 1)
    assert GEOM.r_s <= res.failure["value"] < GEOM.r_s + 0.1
    assert 0.0 < res.failure["t"] < 1.0
    assert res.metrics["min_distance"] == pytest.approx(3.0)


def test_run_refuses_a_pair_desired_inside_the_safety_distance():
    # the collision barrier is not defined at a desired distance 1.5 <= d_s:
    # with caps fixed by the scenario the run used to start and end in a
    # safety_distance failure at t = 1.25; tuned caps were refused
    sc = const_pair_scenario(
        positions=np.array([[0.0, 0.0], [3.0, 0.0]]),
        velocities=np.zeros((2, 2)), tau=np.array([[0.0, 0.0], [1.5, 0.0]]),
        barrier=BarrierParams(1.0, 1.0), T_end=2.0,
        assumption_overrides={"A1": "probe", "A3": "probe"})
    for unsafe in (False, True):
        with pytest.raises(PreconditionError, match=re.escape(
                "pair (0,1): desired distance 1.5 is not above d_s=1.875")):
            run(sc, seed=0, unsafe=unsafe)


def chain_scenario():
    """A chain 0-1-2 whose far end flies in: (0, 2) is added at r_s - eps,
    (1, 2) and then (0, 1) pass through the collision zone, and (0, 2) is
    dropped again beyond r_s."""
    tau = np.array([[0.0, 0.0], [3.0, 0.0], [6.0, 0.0]])
    adj = oracles.adjacency(3, {(i, j): {(): 0.2}
                                for i, j in ((0, 1), (0, 2), (1, 2))})
    return ScenarioSpec(
        name="chain", geometry=GEOM, tau=tau,
        positions=np.array([[0.0, 0.0], [3.0, 0.0], [10.5, 0.0]]),
        velocities=np.array([[0.0, 0.0], [0.0, 0.0], [-3.0, 0.0]]),
        formation=oracles.pair_mask(3, [(0, 1), (1, 2)]),
        adjacency=adj,
        T_end=3.0)


def test_run_zone_and_edge_switches_conserve_energy_jumps():
    # every mask change of the chain must move W by exactly the entering
    # minus the leaving terms
    res = run(chain_scenario(), seed=0)
    assert res.ok, res.failure
    assert res.log.events == [
        {"t": 0.4160000000000003, "type": "switch", "added": [(0, 2)],
         "removed": []},
        {"t": 0.5490000000000004, "type": "zone", "entered": [(1, 2)],
         "left": []},
        {"t": 0.7080000000000005, "type": "zone", "entered": [],
         "left": [(1, 2)]},
        {"t": 0.9800000000000008, "type": "zone", "entered": [(0, 1)],
         "left": []},
        {"t": 1.232999999999975, "type": "zone", "entered": [],
         "left": [(0, 1)]},
        {"t": 1.251999999999973, "type": "switch", "added": [],
         "removed": [(0, 2)]}]
    assert res.metrics["n_switches"] == 2
    jump_tol = 1e-9
    assert res.metrics["max_energy_jump_error"] \
        <= jump_tol * max(1.0, float(np.max(res.log.W_values)))


# arguments that used to end in "cannot convert float NaN to integer"
# (T_end nan); the step is the scenario's dt, checked where it is read
@pytest.mark.parametrize("argument, value", [
    ("T_end", float("nan")), ("T_end", -1.0)])
def test_run_rejects_bad_time_grid_argument(argument, value):
    with pytest.raises(ValueError, match=f"^{argument}: must be"):
        run(ScenarioSpec.load(builtin_path("six_agent")),
            **{argument: value})


def test_run_takes_at_most_the_step_limit(monkeypatch):
    # 100 steps of six_agent's dt 0.005 run; 101 are refused before the
    # run certifies or allocates its state
    sc = ScenarioSpec.load(builtin_path("six_agent"))
    monkeypatch.setattr("robustform.scenario.MAX_STEPS", 100)
    assert run(sc, T_end=0.5, unsafe=True).metrics["n_steps_taken"] == 100
    calls = oracles.count_calls(monkeypatch, (simulate, "certify"))
    with pytest.raises(ValueError, match="^T_end: must be at most the "
                       "limit of 100 steps of dt = 0.005, got 0.505$"):
        run(sc, T_end=0.505)
    assert calls == {"certify": 0}


# ---------------------------------------------------------- golden bytes

# sha256 of the run-directory files the integrator, the barrier kernel and
# the monitors determine (certificate.json is left out: its bytes depend on
# the BLAS thread count).  Recorded with the code of commit 65c779e; any
# change to a floating-point operation of the simulate path, or to the order
# of its operations, moves them.
GOLDEN_RUN_FILES = {
    # a zone event at t = 0.28
    ("six_agent", 5, "10"): {
        "trajectory.csv":
        "387f55ecb177dbc2a395756f30eaf40d4d8e2d6552433336cf4fbca4de47e2cd",
        "energy.csv":
        "0267c710257fec5e982b9d0fa35205442f461a2c2408b46940ced77c76e49978",
        "events.jsonl":
        "fc2727a14dedfd51391fc053388652e27b604c86e41121169266f2f9eb99be54",
        "metrics.json":
        "72098a0441fc30a56a5652fb34a12b25e8e3a9adc6cb068addef05ca6593dc65"},
    # stops on a safety_distance failure at t = 0.228
    ("adversarial", 1, None): {
        "trajectory.csv":
        "dac0f12d1e92503a6f66d437fe52751a4e975730c283cc979db1fc85c8b2c2fe",
        "energy.csv":
        "b32ee94ae7824f233e6e977a45925a1dfb7039ba2e6eddbf861b311cd6523b11",
        "events.jsonl":
        "040c404401935af431acbc814dc6bea6ca8f3ecb94ccd55f1596dd9f1f1c39a4",
        "metrics.json":
        "47aec6c77f19adb9198a5f9577e20d90b16af6c50866f47d068594c7f2cce81c"},
    # two edge switches and four zone events
    ("chain", 0, None): {
        "trajectory.csv":
        "015aa59e190134014703ae92cd9ef79bc1da7c472ae1c420e633378830a9452a",
        "energy.csv":
        "7128dfef773607a54d7b700e09db2a2332bacae711e4d924eeac8bf2af32a52d",
        "events.jsonl":
        "817dcff5b3cd52e220b2c406e13b13ad9cc5f757fcc0fe9c36c17a52231f8f1f",
        "metrics.json":
        "873cb33935a6d80e940d96476fade0e3d923dfbf898130f4d25530442af67f29"},
}
# times, positions, velocities, controls and W_values of
# run(fifty_agent, seed=3, T_end=0.2) with the stored certificate
GOLDEN_FIFTY_LOG = \
    "20aa6dc6077703185beb3a8083ce822a26bed0d1553e13177f12d0e01e5e64bf"


@pytest.mark.parametrize("scenario, seed, horizon", list(GOLDEN_RUN_FILES),
                         ids=[name for name, _, _ in GOLDEN_RUN_FILES])
def test_simulate_run_directory_bytes(tmp_path, scenario, seed, horizon):
    from robustform.cli import main
    path = scenario
    if scenario == "chain":
        path = tmp_path / "chain.json"
        oracles.save_scenario(chain_scenario(), path)
    argv = ["simulate", str(path), "--seed", str(seed),
            "--out", str(tmp_path / "runs")]
    main(argv + (["--T", horizon] if horizon else []))
    run_dir = tmp_path / "runs" / f"{scenario}_seed{seed}"
    assert {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in GOLDEN_RUN_FILES[scenario, seed, horizon]} \
        == GOLDEN_RUN_FILES[scenario, seed, horizon]


def test_fifty_agent_log_bytes():
    res = run(ScenarioSpec.load(builtin_path("fifty_agent")), seed=3,
              T_end=0.2, certificate=Certificate.load(FIFTY_CERT))
    h = hashlib.sha256()
    for a in (res.log.times, res.log.positions, res.log.velocities,
              res.log.controls, res.log.W_values):
        h.update(a.tobytes())
    assert h.hexdigest() == GOLDEN_FIFTY_LOG
