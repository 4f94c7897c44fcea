"""End-to-end acceptance suite: one test per shipped guarantee.

Each test here states a user-facing promise of the package and checks it
at the advertised tolerance, including the runtime budget.  The tests are
deliberately independent of the unit suites: where a unit test exercises
internals, these go through the public entry points only, apart from the
barrier kernels, which have none of their own.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
import robustform
from robustform.barrier import _psi_c, _psi_e
from robustform.certifier import certify, sample_lambda2
from robustform.polyalg import MatrixPolynomial
from robustform.scenario import ScenarioSpec, builtin_path
from robustform.sdp import SdpProblem, SdpStatus, solve
from robustform.simulate import run
from robustform.smr import _positions, gram_base, power_vector


def _random_poly(rng, r, deg):
    terms = {}
    for _ in range(int(rng.integers(2, 7))):
        while True:
            e = tuple(int(x) for x in rng.integers(0, deg + 1, size=r))
            if sum(e) <= deg:
                break
        terms[e] = float(rng.uniform(-5, 5))
    return terms


def _random_sym_matpoly(rng, s, r, deg):
    w = {(i, j): _random_poly(rng, r, deg)
         for i in range(s) for j in range(i, s)}
    return oracles.weight_matrix(s, r, w)


def _max_coeff_err(A, B):
    worst = 0.0
    for i in range(A.rows):
        for j in range(A.cols):
            pa, pb = A.terms(i, j), B.terms(i, j)
            for e in set(pa) | set(pb):
                worst = max(worst, abs(pa.get(e, 0.0) - pb.get(e, 0.0)))
    return worst


def test_quartic_alternate_gram_pair_reconstructs_and_lies_in_family():
    # A hand-checked alternative Gram pair for 7t^4+2t^3+4t^2+6t+9: a fixed
    # matrix plus a one-parameter shift that expands to zero.  The expansion
    # must give back the quartic for any shift value, and the fixed matrix
    # must be reachable from the canonical representative within the
    # null-space family.
    t0 = time.perf_counter()
    f = {(4,): 7.0, (3,): 2.0, (2,): 4.0, (1,): 6.0, (0,): 9.0}
    F = np.array([[7.0, 1.0, 0.0],
                  [1.0, 4.0, 3.0],
                  [0.0, 3.0, 9.0]])

    def shift(delta):
        return np.array([[0.0, 0.0, -delta],
                         [0.0, 2.0 * delta, 0.0],
                         [-delta, 0.0, 0.0]])

    pv = power_vector(1, 2)
    target = MatrixPolynomial(1, 1, 1, {e: [[c]] for e, c in f.items()})
    for delta in (-1.0, 0.0, 2.5):
        got = oracles.gram_expand_matrix(F + shift(delta), pv, 1)
        assert _max_coeff_err(got, target) < 1e-12

    base = gram_base(target.coeffs, pv, 1, _positions(pv))
    diff = F - base
    proj = sum(float(np.sum(diff * B)) * B
               for B in oracles.null_matrices(1, 2, 1))
    assert np.max(np.abs(diff - proj)) < 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_gram_roundtrip_on_500_random_forms_and_null_bases_vanish():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(500):
        r = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        s = int(rng.integers(1, 5))
        deg = int(rng.integers(1, 2 * d + 1))
        M = _random_sym_matpoly(rng, s, r, deg)
        pv = power_vector(r, d)
        base = gram_base(M.coeffs, pv, s, _positions(pv))
        worst = max(worst, _max_coeff_err(
            oracles.gram_expand_matrix(base, pv, s), M))
    assert worst < 1e-10

    # the null space depends only on the shape, so sweep every shape the
    # loop above can draw and check each basis element expands to zero
    worst_null = 0.0
    for r in (1, 2, 3):
        for d in (1, 2, 3):
            pv = power_vector(r, d)
            for s in (1, 2, 3, 4):
                for B in oracles.null_matrices(r, d, s):
                    Z = oracles.gram_expand_matrix(B, pv, s)
                    for i in range(Z.rows):
                        for j in range(Z.cols):
                            terms = Z.terms(i, j)
                            if terms:
                                worst_null = max(worst_null,
                                                 max(abs(v)
                                                     for v in terms.values()))
    assert worst_null < 1e-12
    assert time.perf_counter() - t0 < 30.0


def _constant_adjacency(W):
    N = W.shape[0]
    return oracles.adjacency(N, {(i, j): {(): float(W[i, j])}
                                 for i in range(N) for j in range(i + 1, N)
                                 if W[i, j]})


def test_certificate_verdict_matches_eigenvalue_oracle_on_200_graphs():
    # fixed weights: a positive certificate must appear exactly when the
    # second Laplacian eigenvalue is clearly positive, for connected and
    # disconnected graphs alike, and the bound c* s / 2 must not exceed
    # the exact worst case.  c* is a floating-point solver value: on one
    # disconnected graph (k = 181) it is 1.1e-24 over the exact 0, hence
    # the 1e-12 slack

    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    disagreements = []
    n_connected = 0
    for k in range(200):
        N = int(rng.integers(3, 9))
        W = np.zeros((N, N))
        if k % 2 == 0:
            for j in range(1, N):
                i = int(rng.integers(0, j))
                W[i, j] = W[j, i] = rng.uniform(0.1, 2.0)
        for _ in range(int(rng.integers(0, N))):
            i, j = rng.integers(0, N, 2)
            if i != j:
                W[i, j] = W[j, i] = rng.uniform(0.1, 2.0)
        L = np.diag(W.sum(1)) - W
        lam2 = float(np.linalg.eigvalsh(L)[1])
        oracle = lam2 > 1e-3
        n_connected += oracle
        adj = _constant_adjacency(W)
        worst = oracles.worst_lambda2(N, oracles.uncertainty_records(adj))
        assert abs(worst - lam2) <= 1e-12
        res = certify(adj)
        assert res.certificate.c_star * (N - 1) / 2.0 <= worst + 1e-12
        verdict = res.solution.ok and res.certificate.c_star > 1e-6
        if verdict != oracle:
            disagreements.append((k, N, lam2, res.certificate.c_star))
    assert disagreements == []
    assert 40 <= n_connected <= 160  # both classes well represented
    assert time.perf_counter() - t0 < 120.0


def _disk_adjacency(N, edges):
    disk = {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0}
    return oracles.adjacency(N, edges, 2, [disk], [(-1.0, 1.0), (-1.0, 1.0)])


def test_disk_uncertainty_certificates_are_sound():
    # 20 two-parameter scenarios on the unit disk: every positive verdict
    # must be confirmed by dense eigenvalue sampling, the certified lambda2
    # bound c* s / 2 must lie at or below the exact worst case, which lies
    # at or below the sampled minimum, and graphs that can disconnect
    # somewhere on the disk (their vanishing weight is not affine, so the
    # worst case is not known exactly) must never get a positive verdict.
    # Every solve ends OPTIMAL: none stalls near c* = 0
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)

    def affine(margin):
        return {(0, 0): float(rng.uniform(margin, margin + 0.7)),
                (1, 0): float(rng.uniform(-0.3, 0.3)),
                (0, 1): float(rng.uniform(-0.3, 0.3))}

    scenarios = []
    for _ in range(16):  # healthy: ring plus a chord, weights bounded away
        N = int(rng.integers(4, 7))
        edges = {}
        for k in range(N):
            i, j = k, (k + 1) % N
            edges[(min(i, j), max(i, j))] = affine(0.8)
        a, b = sorted(rng.choice(N, size=2, replace=False))
        if (int(a), int(b)) not in edges:
            edges[(int(a), int(b))] = affine(0.8)
        scenarios.append(("healthy", _disk_adjacency(N, edges)))
    vanishing = {(2, 0): 1.0, (0, 2): 1.0}  # zero at origin
    for _ in range(4):  # a path whose middle link can vanish on the disk
        N = int(rng.integers(4, 6))
        edges = {}
        for k in range(N - 1):
            edges[(k, k + 1)] = affine(0.9)
        edges[(N // 2 - 1, N // 2)] = vanishing
        scenarios.append(("breakable", _disk_adjacency(N, edges)))

    n_breakable_rejected = 0
    for kind, adj in scenarios:
        res = certify(adj)
        assert res.solution.status is SdpStatus.OPTIMAL, res.solution.message
        positive = res.solution.ok and res.certificate.c_star > 1e-6
        worst = oracles.worst_lambda2(adj.N,
                                       oracles.uncertainty_records(adj))
        if kind == "breakable":
            assert not positive and worst is None
            n_breakable_rejected += 1
            continue
        assert res.certificate.c_star * (adj.N - 1) / 2.0 <= worst
        if positive:
            samp = sample_lambda2(adj, 10000, seed=5)
            assert len(samp.values) == 10000
            assert samp.min_value > 0.0
            assert worst <= samp.min_value
    assert n_breakable_rejected >= 3
    assert time.perf_counter() - t0 < 300.0


def test_seeded_sweep_verdicts_match_the_exact_worst_case():
    # the first 60 graphs of the seeded sweep (affine weights on a box or
    # a disk, some with an isolated agent): wherever the exact worst-case
    # lambda2 is known, the verdict is that it is clearly positive, and the
    # bound c* s / 2 does not exceed it
    t0 = time.perf_counter()
    n_checked = n_connected = 0
    for adj in oracles.seeded_graphs()[:60]:
        worst = oracles.worst_lambda2(adj.N, oracles.uncertainty_records(adj))
        if worst is None:
            continue
        res = certify(adj)
        assert res.solution.ok, res.solution.message
        verdict = res.certificate.c_star > 1e-6
        assert verdict == (worst > 1e-3)
        assert res.certificate.c_star * (adj.N - 1) / 2.0 <= worst + 1e-12
        n_checked += 1
        n_connected += verdict
    assert n_checked >= 40 and 10 <= n_connected < n_checked
    assert time.perf_counter() - t0 < 60.0


def test_barrier_caps_exact_and_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    for _ in range(50):  # caps are hit exactly at the boundary
        r_hat = float(rng.uniform(1.0, 10.0))
        mu1 = float(rng.uniform(0.5, 50.0))
        assert abs(_psi_e(np.array([r_hat, 0.0]), r_hat,
                          r_hat * r_hat / mu1)[0]() - mu1) < 1e-12
        tau = float(rng.uniform(2.0, 6.0))
        d_s = float(rng.uniform(0.5, 0.9)) * tau
        mu2 = float(rng.uniform(0.5, 50.0))
        assert abs(_psi_c(np.array([d_s, 0.0]), tau, d_s,
                          (d_s - tau) ** 2 / mu2)[0]() - mu2) < 1e-12

    h = 1e-5
    checked = 0
    while checked < 200:
        if checked % 2 == 0:
            r_hat = float(rng.uniform(2.0, 8.0))
            mu1 = float(rng.uniform(1.0, 30.0))
            y = rng.uniform(-1, 1, size=2)
            y *= rng.uniform(0.1, 0.9) * r_hat / np.linalg.norm(y)
            g = _psi_e(y, r_hat, r_hat * r_hat / mu1)[1]()
            num = np.zeros(2)
            for a in range(2):
                e = np.zeros(2)
                e[a] = h
                num[a] = (oracles.psi_e(np.linalg.norm(y + e), r_hat, mu1)
                          - oracles.psi_e(np.linalg.norm(y - e), r_hat, mu1)
                          ) / (2 * h)
        else:
            tau_v = rng.uniform(-1, 1, size=2)
            tau_v *= float(rng.uniform(2.5, 5.0)) / np.linalg.norm(tau_v)
            tau_n = float(np.linalg.norm(tau_v))
            d_s = float(rng.uniform(0.4, 0.7)) * tau_n
            mu2 = float(rng.uniform(1.0, 30.0))
            x = rng.uniform(-1, 1, size=2)  # the separation vector itself
            x *= rng.uniform(d_s * 1.05, tau_n * 1.5) / np.linalg.norm(x)
            g = _psi_c(x, tau_n, d_s, (d_s - tau_n) ** 2 / mu2)[1]()
            num = np.zeros(2)
            for a in range(2):
                e = np.zeros(2)
                e[a] = h
                num[a] = (oracles.psi_c(np.linalg.norm(x + e), tau_n, d_s, mu2)
                          - oracles.psi_c(np.linalg.norm(x - e), tau_n, d_s,
                                          mu2)) / (2 * h)
        if np.linalg.norm(num) < 1e-9:
            continue  # skip the stationary shell where relative error is moot
        assert np.linalg.norm(g - num) <= 1e-6 * np.linalg.norm(num)
        checked += 1
    assert time.perf_counter() - t0 < 10.0


def test_hexagon_swarm_ten_seeds_stay_safe_and_converge():
    t0 = time.perf_counter()
    spec = ScenarioSpec.load(builtin_path("six_agent"))
    cert = certify(spec.adjacency)  # certify once, reuse across seeds
    assert cert.solution.ok and cert.certificate.c_star > 1e-6
    for seed in range(10):
        res = run(spec, seed=seed, certificate=cert.certificate)
        assert res.ok, (seed, res.failure)
        assert res.metrics["min_distance"] > spec.geometry.d_s
        assert res.metrics["max_energy_drift"] <= 1e-4 * spec.dt
        assert res.metrics["t_final"] >= spec.T_end - spec.dt
        assert res.metrics["formation_error"] <= 1e-2, seed
        assert res.metrics["velocity_disagreement"] <= 1e-2, seed
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.parametrize("name, exact", [("six_agent", 5.180214769),
                                         ("adversarial", 0.1)])
def test_shipped_bound_lies_below_the_exact_worst_case(name, exact):
    # six_agent's worst case lies on the unit circle; adversarial has one
    # constant weight 0.05 between two agents
    spec = ScenarioSpec.load(builtin_path(name))
    doc = json.loads(builtin_path(name).read_text())
    worst = oracles.worst_lambda2(spec.n_agents, doc["uncertainty"])
    assert abs(worst - exact) <= 1e-9
    c_star = certify(spec.adjacency).certificate.c_star
    assert c_star * (spec.n_agents - 1) / 2.0 <= worst
    assert worst <= sample_lambda2(spec.adjacency, 10000, seed=0).min_value


def test_fifty_agent_ring_completes_with_invariants_intact():
    t0 = time.perf_counter()
    spec = ScenarioSpec.load(builtin_path("fifty_agent"))
    res = run(spec, seed=0)
    assert res.ok, res.failure
    assert res.metrics["min_distance"] > spec.geometry.d_s
    assert res.metrics["max_energy_drift"] <= 1e-4 * spec.dt
    assert res.metrics["t_final"] >= spec.T_end - spec.dt
    # the bound of the certificate the run made lies below the exact
    # worst case, at the vertices theta = -1 and 1, and so does every
    # sampled lambda2
    doc = json.loads(builtin_path("fifty_agent").read_text())
    worst = oracles.worst_lambda2(spec.n_agents, doc["uncertainty"])
    assert abs(worst - 0.014889483088) <= 1e-12
    assert res.cert.c_star * (spec.n_agents - 1) / 2.0 <= worst
    assert worst <= sample_lambda2(spec.adjacency, 10000, seed=0).min_value
    assert time.perf_counter() - t0 < 600.0


def test_undersized_caps_trip_the_safety_monitor_with_exit_code_4(tmp_path):
    # the shipped head-on scenario pins its caps far below the tuned bound;
    # the monitor must catch the resulting spacing violation and the command
    # line must report it with the dedicated exit code
    t0 = time.perf_counter()
    # the child imports the package this suite imported, installed or not
    path = [str(Path(robustform.__file__).parents[1]),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-m", "robustform.cli", "simulate", "adversarial",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 4, proc.stderr
    metrics = json.loads(
        (tmp_path / "adversarial_seed0" / "metrics.json").read_text())
    assert metrics["failure"]["kind"] in ("safety_distance",
                                          "formation_edge_break")
    assert time.perf_counter() - t0 < 60.0


def test_interior_point_reaches_planted_and_analytic_optima():
    t0 = time.perf_counter()
    rng_master = np.random.default_rng(0)

    def planted(seed, sizes=(5, 4), m=6):
        # complementary PSD pair per block with a drawn multiplier vector,
        # so the optimum is known exactly before the solver runs
        rng = np.random.default_rng(seed)
        y_star = rng.normal(size=m)
        b = np.zeros(m)
        blocks = []
        for n in sizes:
            split = n // 2 + 1
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            d1 = rng.uniform(0.5, 2.0, size=split)
            d2 = rng.uniform(0.5, 2.0, size=n - split)
            S_star = Q[:, :split] @ np.diag(d1) @ Q[:, :split].T
            Z_star = Q[:, split:] @ np.diag(d2) @ Q[:, split:].T
            F = [rng.normal(size=(n, n)) for _ in range(m)]
            F = [0.5 * (Fk + Fk.T) for Fk in F]
            F0 = S_star - sum(y_star[i] * F[i] for i in range(m))
            blocks.append((F0, F))
            for i in range(m):
                b[i] -= float(np.sum(F[i] * Z_star))
        prob = SdpProblem()
        idx = [prob.add_var(obj=b[i]) for i in range(m)]
        for F0, F in blocks:
            prob.add_lmi(F0, oracles.lmi_columns(
                {idx[i]: F[i] for i in range(m)}, len(F0)))
        return prob, float(b @ y_star)

    worst_obj, worst_gap = 0.0, 0.0
    for seed in range(100):
        prob, opt = planted(int(rng_master.integers(0, 2 ** 31)))
        sol = solve(prob, tol=1e-10)
        assert sol.status in (SdpStatus.OPTIMAL, SdpStatus.NEAR_OPTIMAL)
        worst_obj = max(worst_obj, abs(sol.objective_value - opt))
        worst_gap = max(worst_gap, abs(sol.duality_gap))
    assert worst_obj <= 1e-7
    assert worst_gap <= 1e-8

    # smallest diagonal entry: max c with diag(2, 5) - c I PSD
    prob = SdpProblem()
    c = prob.add_var(obj=1.0)
    prob.add_lmi(np.diag([2.0, 5.0]), oracles.lmi_columns({c: -np.eye(2)}, 2))
    sol = solve(prob, tol=1e-11)
    assert abs(sol.objective_value - 2.0) <= 1e-9

    # normalized scalar: max c with p PSD, 1 - p PSD, and 2p - c PSD
    prob = SdpProblem()
    c = prob.add_var(obj=1.0)
    p = prob.add_psd_var(1)
    scalar = int(p.indices[0])
    prob.add_lmi(np.ones((1, 1)),
                 oracles.lmi_columns({scalar: -np.ones((1, 1))}, 1))
    prob.add_lmi(np.zeros((1, 1)),
                 oracles.lmi_columns({scalar: 2.0 * np.ones((1, 1)),
                                      c: -np.ones((1, 1))}, 1))
    sol = solve(prob, tol=1e-11)
    assert abs(sol.objective_value - 2.0) <= 1e-9
    assert time.perf_counter() - t0 < 60.0
