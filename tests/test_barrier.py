"""Barrier potentials: frozen values, gradients, energy, cap tuning.

The kernels _psi_e and _psi_c are checked against the closed forms in
oracles.py and against hand-derived values:

  psi_e(1; r_hat_s=5, mu1=2)       = 1 / (5 - 1 + 25/2)        = 1/16.5
  psi_c(2; tau=3, d_s=1.875, mu2=0.5)
      gap = 1.875 - 3 = -1.125, D = 2 - 1.875 + 1.125^2/0.5
                                   = 1 / 2.65625
  two-agent equilibrium tune (tau distance 3, r_z=2.5, d_s=1.875):
      envelope zone value (2.5-3)^2/(2.5-1.875) = 0.4, caps 0.44,
      mu_safe = 0.25 / (0.625 + 1.125^2/0.44)
"""

import math

import numpy as np
import pytest

import oracles
from robustform.barrier import (BarrierParams, DomainViolation, PairArrays,
                                Point, TuneError, _psi_c, _psi_e, tune_mu,
                                zone_pairs_at)
from robustform.netgraph import (AgentGeometry, TopologyState,
                                 pair_distances, update_edges)


GEOM = AgentGeometry(r_a=0.75, r_c=0.9375, r_z=2.5, r_s=8.0,
                     d_s=1.875, eps=0.1)


def pair_topology():
    mask = oracles.pair_mask(2, [(0, 1)])
    return TopologyState(edges=mask, formation=mask)


def energy(positions, velocities, tau, topo, geom, G, params,
           zone_pairs=None):
    """W through PairArrays; zone_pairs defaults to the pairs within r_z."""
    if zone_pairs is None:
        zone_pairs = zone_pairs_at(pair_distances(positions), topo, geom)
    return Point(PairArrays(topo, zone_pairs, tau, geom, G, params),
                 np.stack([positions, velocities])).energy()


# ---------------------------------------------------------------- params

def test_params_validate():
    BarrierParams(1.0, 2.0)
    with pytest.raises(ValueError):
        BarrierParams(0.0, 1.0)
    with pytest.raises(ValueError):
        BarrierParams(1.0, -1.0)


# ------------------------------------------------------------- psi_e

def kernel_e(y, r_hat_s, mu1, grad=False):
    """The kernel's psi_e, or with grad its gradient, at the formation
    errors y, under the cap mu1."""
    value, gradient = _psi_e(y, r_hat_s, r_hat_s * r_hat_s / mu1)
    return (gradient if grad else value)()


def kernel_c(x, tau_norm, d_s, mu2, grad=False):
    """The kernel's psi_c, or with grad its gradient, at the separations x,
    under the cap mu2."""
    gap = d_s - tau_norm
    value, gradient = _psi_c(x, tau_norm, d_s, gap * gap / mu2)
    return (gradient if grad else value)()


def psi_e(q, r_hat_s, mu1):
    """The kernel's psi_e at the formation error (q, 0)."""
    return kernel_e(np.array([q, 0.0]), r_hat_s, mu1)


def psi_c(p, tau_norm, d_s, mu2):
    """The kernel's psi_c at the separation (p, 0)."""
    return kernel_c(np.array([p, 0.0]), tau_norm, d_s, mu2)


def test_psi_e_zero_at_origin():
    assert psi_e(0.0, 5.0, 2.0) == 0.0
    assert oracles.psi_e(0.0, 5.0, 2.0) == 0.0


def test_psi_e_cap_exact():
    for r_hat, mu in [(5.0, 2.0), (1.234, 0.07), (6.125, 220.0),
                      (0.5, 1e-3)]:
        for f in (psi_e, oracles.psi_e):
            assert abs(f(r_hat, r_hat, mu) - mu) <= 1e-12 * max(1.0, mu)


def test_psi_e_frozen_value():
    for f in (psi_e, oracles.psi_e):
        assert f(1.0, 5.0, 2.0) == pytest.approx(1.0 / 16.5, rel=1e-15)


def test_psi_e_increasing_on_domain():
    qs = np.linspace(0.0, 5.0, 400)
    vals = kernel_e(qs[:, None] * [1.0, 0.0], 5.0, 2.0, grad=False)
    assert (np.diff(vals) > 0).all()
    np.testing.assert_allclose(
        vals, [oracles.psi_e(q, 5.0, 2.0) for q in qs], rtol=1e-15)


def test_psi_e_infinite_cap_envelope():
    for q in (0.3, 2.0, 4.9):
        for f in (psi_e, oracles.psi_e):
            assert f(q, 5.0, math.inf) == pytest.approx(
                q * q / (5.0 - q), rel=1e-15)


def test_psi_e_domain_violation():
    # D = r - q + r^2/mu <= 0 once q >= r + r^2/mu
    with pytest.raises(DomainViolation):
        psi_e(5.0 + 25.0 / 2.0, 5.0, 2.0)


# ------------------------------------------------------------- psi_c

def test_psi_c_zero_at_desired_distance():
    assert psi_c(3.0, 3.0, 1.875, 0.5) == 0.0
    assert oracles.psi_c(3.0, 3.0, 1.875, 0.5) == 0.0


def test_psi_c_cap_exact():
    for tau, mu in [(3.0, 0.5), (2.8, 7.0), (3.766, 220.0), (4.0, 1e-3)]:
        for f in (psi_c, oracles.psi_c):
            assert abs(f(1.875, tau, 1.875, mu) - mu) \
                <= 1e-12 * max(1.0, mu)


def test_psi_c_frozen_value():
    for f in (psi_c, oracles.psi_c):
        assert f(2.0, 3.0, 1.875, 0.5) == pytest.approx(
            1.0 / 2.65625, rel=1e-15)


def test_psi_c_decreasing_toward_desired():
    ps = np.linspace(1.875, 3.0, 400)
    vals = kernel_c(ps[:, None] * [1.0, 0.0], 3.0, 1.875, 0.5, grad=False)
    assert (np.diff(vals) < 0).all()
    np.testing.assert_allclose(
        vals, [oracles.psi_c(p, 3.0, 1.875, 0.5) for p in ps], rtol=1e-14)


def test_psi_c_infinite_cap_envelope():
    for p in (2.0, 2.5, 2.99):
        for f in (psi_c, oracles.psi_c):
            assert f(p, 3.0, 1.875, math.inf) == pytest.approx(
                (p - 3.0) ** 2 / (p - 1.875), rel=1e-14)


def test_psi_c_domain_violation():
    # denominator zero at p = d_s - gap^2/mu
    with pytest.raises(DomainViolation):
        psi_c(1.875 - 1.125 ** 2 / 2.0, 3.0, 1.875, 2.0)


# ---------------------------------------------------------- gradients

def central_difference(f, x, h):
    g = np.empty_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def test_grad_psi_e_matches_central_differences():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        dim = int(rng.integers(2, 4))
        r_hat = float(rng.uniform(1.0, 10.0))
        mu = float(rng.uniform(0.1, 10.0))
        y = rng.normal(size=dim)
        q = float(np.linalg.norm(y))
        if q < 1e-3 or q > 0.9 * r_hat:
            y *= rng.uniform(0.1, 0.85) * r_hat / q
        g = kernel_e(y, r_hat, mu, grad=True)
        fd = central_difference(
            lambda v: oracles.psi_e(float(np.linalg.norm(v)), r_hat, mu),
            y, 1e-5)
        denom = max(np.linalg.norm(g), 1e-8)
        assert np.linalg.norm(g - fd) / denom <= 1e-6
        np.testing.assert_allclose(oracles.grad_psi_e(y, r_hat, mu), g,
                                   rtol=1e-12, atol=1e-15)
        checked += 1


def test_grad_psi_c_matches_central_differences():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 100:
        dim = int(rng.integers(2, 4))
        tau = rng.normal(size=dim)
        tn = float(np.linalg.norm(tau))
        tau *= rng.uniform(2.0, 6.0) / tn
        tn = float(np.linalg.norm(tau))
        d_s = float(rng.uniform(0.5, 0.8 * tn))
        mu = float(rng.uniform(0.1, 10.0))
        # place the pair somewhere strictly inside the domain
        p_target = float(rng.uniform(d_s + 0.2, tn + 2.0))
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        y = p_target * direction - tau
        g = kernel_c(y + tau, tn, d_s, mu, grad=True)
        fd = central_difference(
            lambda v: oracles.psi_c(float(np.linalg.norm(v + tau)), tn, d_s,
                                    mu), y, 1e-5)
        denom = max(np.linalg.norm(g), 1e-8)
        assert np.linalg.norm(g - fd) / denom <= 1e-6
        np.testing.assert_allclose(oracles.grad_psi_c(y + tau, tn, d_s, mu),
                                   g, rtol=1e-12, atol=1e-15)
        checked += 1


def test_grad_psi_e_bounded_near_origin():
    for scale in (1e-3, 1e-6, 1e-9):
        y = np.array([scale, 0.0])
        g = kernel_e(y, 5.0, 2.0, grad=True)
        assert np.all(np.isfinite(g))
        # leading behaviour is (2/D) * y
        D = 5.0 + 25.0 / 2.0
        assert np.linalg.norm(g) <= 3.0 * scale / D
        np.testing.assert_allclose(oracles.grad_psi_e(y, 5.0, 2.0), g,
                                   rtol=1e-15)


def test_grad_psi_c_finite_at_desired_distance():
    g = kernel_c(np.array([3.0, 0.0]), 3.0, 1.875, 0.5, grad=True)
    assert np.all(np.isfinite(g))
    assert np.linalg.norm(g) <= 1e-14
    assert np.linalg.norm(oracles.grad_psi_c([3.0, 0.0], 3.0, 1.875,
                                             0.5)) <= 1e-14


def test_grad_psi_c_singular_at_overlap():
    with pytest.raises(DomainViolation, match="zero separation"):
        kernel_c(np.zeros(2), 3.0, 1.875, 0.5, grad=True)


# ------------------------------------------------------------ energy

def test_energy_zero_at_rest_on_formation():
    tau = np.array([[0.0, 0.0], [3.0, 0.0]])
    params = BarrierParams(0.44, 0.44)
    W = energy(tau, np.zeros((2, 2)), tau, pair_topology(), GEOM,
               np.array([[0.0, 1.0], [1.0, 0.0]]), params)
    assert W == 0.0


def test_energy_translation_invariant():
    rng = np.random.default_rng(3)
    tau = np.array([[0.0, 0.0], [3.0, 0.0]])
    pos = tau + 0.3 * rng.normal(size=(2, 2))
    vel = rng.normal(size=(2, 2))
    params = BarrierParams(2.0, 2.0)
    G = np.array([[0.0, 1.3], [1.3, 0.0]])
    a = energy(pos, vel, tau, pair_topology(), GEOM, G, params)
    b = energy(pos + np.array([5.0, -2.0]), vel, tau, pair_topology(),
               GEOM, G, params)
    assert a == pytest.approx(b, rel=1e-12)


def test_energy_quadratic_part_is_laplacian_form():
    rng = np.random.default_rng(5)
    N, dim = 5, 2
    G = np.abs(rng.normal(size=(N, N)))
    G = (G + G.T) / 2.0
    np.fill_diagonal(G, 0.0)
    topo = TopologyState(edges=np.triu(np.ones((N, N), dtype=bool), 1),
                         formation=oracles.pair_mask(N, []))
    # spread agents out so no pair is inside r_z, and give them the
    # formation offsets so that y = positions - tau is the random part
    tau = 100.0 * np.arange(N)[:, None] * np.array([[1.0, 0.0]])
    y = rng.normal(size=(N, dim))
    params = BarrierParams(1.0, 1.0)
    W = energy(tau + y, np.zeros((N, dim)), tau, topo, GEOM, G, params,
               zone_pairs=oracles.pair_mask(N, []))
    L = oracles.laplacian(G)
    quad = 0.5 * y.reshape(-1) @ np.kron(L, np.eye(dim)) @ y.reshape(-1)
    assert W == pytest.approx(quad, abs=1e-12 * max(1.0, abs(quad)))


def test_energy_kinetic_part():
    tau = np.array([[0.0, 0.0], [3.0, 0.0]])
    vel = np.array([[1.0, 2.0], [-0.5, 0.25]])
    params = BarrierParams(0.44, 0.44)
    W = energy(tau, vel, tau, pair_topology(), GEOM,
               np.array([[0.0, 1.0], [1.0, 0.0]]), params)
    assert W == pytest.approx(0.5 * np.sum(vel ** 2), rel=1e-15)


def test_energy_zone_pair_contribution():
    # park the pair inside r_z and compare against the explicit psi_c
    tau = np.array([[0.0, 0.0], [3.0, 0.0]])
    pos = np.array([[0.0, 0.0], [2.2, 0.0]])
    params = BarrierParams(0.7, 0.7)
    G = np.array([[0.0, 1.0], [1.0, 0.0]])
    topo = pair_topology()
    assert oracles.pairs(zone_pairs_at(pair_distances(pos), topo, GEOM)) \
        == [(0, 1)]
    with_zone = energy(pos, np.zeros((2, 2)), tau, topo, GEOM, G, params)
    frozen_out = energy(pos, np.zeros((2, 2)), tau, topo, GEOM, G,
                        params, zone_pairs=oracles.pair_mask(2, []))
    gap = with_zone - frozen_out
    assert gap == pytest.approx(oracles.psi_c(2.2, 3.0, 1.875, 0.7),
                                rel=1e-12)


# ------------------------------------------------------- epoch arrays

def busy_states(dim, count=8):
    """Seeded (positions, velocities, tau, topo, zone, G) of a pentagon of
    spacing 3 in dim dimensions, each with formation pairs, zone pairs
    and edges outside the formation all active."""
    rng = np.random.default_rng(dim)
    N = 5
    angle = 2.0 * np.pi * np.arange(N) / N
    tau = np.zeros((N, dim))
    tau[:, 0], tau[:, 1] = np.cos(angle), np.sin(angle)
    tau *= 3.0 / (2.0 * np.sin(np.pi / N))
    ring = oracles.pair_mask(N, [(k, (k + 1) % N) if k < N - 1
                                 else (0, N - 1) for k in range(N)])
    G = np.abs(rng.normal(size=(N, N)))
    G = G + G.T
    np.fill_diagonal(G, 0.0)
    states = []
    while len(states) < count:
        pos = tau + rng.uniform(-0.35, 0.35, size=(N, dim))
        topo = update_edges(pair_distances(pos), TopologyState(ring, ring),
                            GEOM)
        zone = zone_pairs_at(pair_distances(pos), topo, GEOM)
        if zone.any() and (topo.edges & ~topo.formation).any():
            states.append((pos, rng.normal(size=(N, dim)), tau, topo, zone,
                           G))
    return states


@pytest.mark.parametrize("dim", [2, 3])
def test_epoch_control_and_energy_match_pairwise_oracles(dim):
    params = BarrierParams(5.0, 4.0)
    for pos, vel, tau, topo, zone, G in busy_states(dim):
        point = Point(PairArrays(topo, zone, tau, GEOM, G, params),
                      np.stack([pos, vel]))
        u = point.rate()[1]
        u_ref = np.stack([
            oracles.control_input(i, pos, vel, tau, topo, GEOM, G, params,
                                  zone_pairs=zone) for i in range(len(pos))])
        assert np.linalg.norm(u - u_ref) <= 1e-12 * np.linalg.norm(u_ref)
        assert np.array_equal(point.rate()[0], vel)
        W = point.energy()
        W_ref = oracles.energy_W(pos, vel, tau, topo, GEOM, G, params,
                                 zone_pairs=zone)
        assert abs(W - W_ref) <= 1e-12 * abs(W_ref)


def violation(arrays, method, positions):
    """The DomainViolation of the epoch's control law ("control") or energy
    at positions, at rest."""
    z = np.stack([positions, np.zeros_like(positions)])
    with pytest.raises(DomainViolation) as info:
        point = Point(arrays, z)
        point.rate() if method == "control" else point.energy()
    return str(info.value), info.value.index


@pytest.mark.parametrize("method", ["control", "energy"])
def test_epoch_edge_violation_names_first_offending_pair(method):
    # r_hat = 8 - 3, 8 - 4, 8 - 5 on the pairs (0,1), (0,2), (1,2); with
    # mu1 = 1 the denominator r_hat - q + r_hat^2 is -5 on (0,2) at q = 25
    # and -13 on (1,2), the second offender
    tau = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    every = oracles.pair_mask(3, [(0, 1), (0, 2), (1, 2)])
    arrays = PairArrays(TopologyState(every, every),
                        oracles.pair_mask(3, []), tau, GEOM, np.zeros((3, 3)),
                        BarrierParams(1.0, 1.0))
    pos = tau + np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 25.0]])
    assert violation(arrays, method, pos) \
        == ("pair (0,2): psi_e denominator -5.000e+00 <= 0 at "
            "q=25.000000, r_hat_s=4.000000", 1)


@pytest.mark.parametrize("method", ["control", "energy"])
def test_epoch_collision_violation_names_first_offending_pair(method):
    # desired distance 3: gap^2 / mu2 = 1.125^2 / 1.265625 = 1, so the
    # denominator p - 1.875 + 1 is -0.375 at p = 0.5 on the zone pair (1,2)
    tau = np.array([[0.0, 0.0], [3.0, 0.0], [6.0, 0.0]])
    near = oracles.pair_mask(3, [(0, 1), (1, 2)])
    arrays = PairArrays(TopologyState(near, oracles.pair_mask(3, [])), near,
                        tau, GEOM, np.zeros((3, 3)),
                        BarrierParams(1.0, 1.265625))
    pos = np.array([[0.0, 0.0], [2.25, 0.0], [2.75, 0.0]])
    assert violation(arrays, method, pos) \
        == ("pair (1,2): psi_c denominator -3.750e-01 <= 0 at "
            "p=0.500000, tau_norm=3.000000", 1)


def test_epoch_control_names_zero_separation_pair():
    # the energy is defined at zero separation; only the control law, formed
    # after the energy monitor has read the point, is singular there
    tau = np.array([[0.0, 0.0], [3.0, 0.0], [6.0, 0.0]])
    near = oracles.pair_mask(3, [(0, 1), (1, 2)])
    arrays = PairArrays(TopologyState(near, oracles.pair_mask(3, [])), near,
                        tau, GEOM, np.zeros((3, 3)),
                        BarrierParams(1.0, 0.5))
    pos = np.array([[0.0, 0.0], [2.25, 0.0], [2.25, 0.0]])
    assert np.isfinite(Point(arrays, np.stack([pos, 0.0 * pos])).energy())
    assert violation(arrays, "control", pos) \
        == ("pair (1,2): psi_c gradient singular at zero separation; "
            "collision avoidance has already failed", 1)


# ------------------------------------------------------------ tune_mu

def equilibrium_pair():
    tau = np.array([[0.0, 0.0], [3.0, 0.0]])
    G = np.array([[0.0, 1.0], [1.0, 0.0]])
    return tau, G


def test_tune_equilibrium_single_step():
    tau, G = equilibrium_pair()
    res = tune_mu(tau, np.zeros((2, 2)), tau, pair_topology(), GEOM, [G])
    # caps: 1.1 * envelope zone bound 0.4
    assert res.params.mu1 == pytest.approx(0.44, rel=1e-12)
    assert res.params.mu2 == res.params.mu1
    expected_safe = 0.25 / (0.625 + 1.125 ** 2 / 0.44)
    assert res.mu_safe == pytest.approx(expected_safe, rel=1e-12)
    assert res.mu_safe < res.params.mu1
    assert res.w0 == 0.0


def test_tune_caps_dominate_recomputed_bound():
    rng = np.random.default_rng(17)
    tau = np.array([[0.0, 0.0], [3.0, 0.0], [1.5, 2.9]])
    edges = oracles.pair_mask(3, [(0, 1), (0, 2), (1, 2)])
    topo = TopologyState(edges=edges, formation=edges)
    pos = tau + 0.2 * rng.normal(size=(3, 2))
    vel = rng.normal(size=(3, 2))
    G = np.array([[0.0, 1.0, 0.8], [1.0, 0.0, 1.2], [0.8, 1.2, 0.0]])
    res = tune_mu(pos, vel, tau, topo, GEOM, [G])
    # recompute the bound at the returned caps and check domination
    W0 = oracles.energy_W(pos, vel, tau, topo, GEOM, G, res.params)
    worst_zone = max(
        oracles.psi_c(GEOM.r_z, float(np.linalg.norm(tau[i] - tau[j])),
                      GEOM.d_s, res.params.mu2)
        for i in range(3) for j in range(i + 1, 3))
    bound = W0 + 0.5 * 3 * 2 * worst_zone
    assert bound == pytest.approx(res.mu_safe, rel=1e-12)
    assert res.params.mu1 > bound


def test_tune_edge_keeping_margin_below_cap():
    tau, G = equilibrium_pair()
    res = tune_mu(tau, np.zeros((2, 2)), tau, pair_topology(), GEOM, [G])
    r_hat = GEOM.r_s - 3.0
    # a formation error of r_hat less the margin eps / 2 stays below the cap
    assert oracles.psi_e(r_hat - GEOM.eps / 2, r_hat,
                         res.params.mu1) < res.params.mu1


def test_tune_velocity_scaling_raises_bound():
    tau, G = equilibrium_pair()
    vel = np.array([[1.0, 0.0], [-1.0, 0.0]])
    res1 = tune_mu(tau, vel, tau, pair_topology(), GEOM, [G])
    res2 = tune_mu(tau, 2.0 * vel, tau, pair_topology(), GEOM, [G])
    assert res2.mu_safe > res1.mu_safe
    assert res2.params.mu1 > res1.params.mu1


def test_tune_worst_weight_sample_governs():
    tau, G = equilibrium_pair()
    pos = tau + np.array([[0.0, 0.0], [0.5, 0.0]])
    weak, strong = 0.3 * G, 2.0 * G
    res = tune_mu(pos, np.zeros((2, 2)), tau, pair_topology(), GEOM,
                  [weak, strong])
    alone = tune_mu(pos, np.zeros((2, 2)), tau, pair_topology(), GEOM,
                    [strong])
    assert res.mu_safe == pytest.approx(alone.mu_safe, rel=1e-12)


def test_tune_rejects_initial_error_beyond_envelope():
    tau, G = equilibrium_pair()
    pos = tau + np.array([[0.0, 0.0], [5.2, 0.0]])  # r_hat_s = 5
    with pytest.raises(TuneError, match="envelope"):
        tune_mu(pos, np.zeros((2, 2)), tau, pair_topology(), GEOM, [G])
