"""Certifier tests.

Frozen oracles, all derived by hand or by independent numerics.  The
pencil matrix is fixed at P = I / s, so with no uncertainty c* is
2 lambda_2 / s:

* single unit edge, no uncertainty: the reduced Laplacian is [2], s = 1 and
  the compiled problem is "max c s.t. 4 - c >= 0", so c* = 4;
* path on three vertices, unit weights: the reduced Laplacian has
  eigenvalues 1 and 3 and s = 2, so c* = 2 * 1 / 2 = 1;
* single edge, weight 1 + theta/2 on theta in [-1, 1]: the 2x2 Gram
  constraint [[rho - c, 1], [1, 4 - c - rho]] >= 0 is maximized at
  rho = 2, c* = 1 (tight at theta = -1 where the weight is 1/2);
* single edge, weight theta on [-1, 1]: the edge dies at theta = 0, and
  the same 2x2 analysis forces c <= -sqrt(4 + rho^2), so c* = -2.
"""

import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from robustform import certifier, sdp
from robustform.certifier import (Assembly, Certificate, CertifierError,
                                  CertifyResult, DegreePlan, Lambda2Samples,
                                  assemble, band_form, certify, refusals,
                                  sample_lambda2, verify_certificate)
from robustform.netgraph import (UncertainAdjacency, haar_basis, laplacian,
                                 reduced_basis, reduced_laplacian)
from robustform.polyalg import MatrixPolynomial
from robustform.scenario import BUILTIN, ScenarioSpec, builtin_path
from robustform.smr import power_vector


def const_adjacency(W):
    """Uncertainty-free adjacency from a numeric symmetric matrix."""
    W = np.asarray(W, dtype=float)
    return UncertainAdjacency(
        N=W.shape[0],
        entries=MatrixPolynomial(len(W), len(W), 0, {(): W}),
        omega=oracles.region_column(0), box=[])


def unit_disk(r):
    """The term dict of 1 - |theta|^2."""
    terms = {(0,) * r: 1.0}
    for k in range(r):
        terms[tuple(2 * (m == k) for m in range(r))] = -1.0
    return terms


# ---------------------------------------------------------------------------
# degree plans


def test_plan_auto_affine_weight_disk_region():
    plan = DegreePlan.auto(1, [2])
    assert plan == DegreePlan(1, (0,))


def test_plan_auto_no_uncertainty():
    assert DegreePlan.auto(0, []) == DegreePlan(0, ())


def test_plan_auto_raises_dH_for_region():
    plan = DegreePlan.auto(0, [3])
    assert plan.d_H == 2
    assert plan.d_R == (0,)


def test_plan_dict_roundtrip():
    plan = DegreePlan(3, (2, 0))
    assert plan.to_dict() == {"d_P": 0, "d_H": 3, "d_R": [2, 0]}
    assert DegreePlan.from_dict(plan.to_dict()) == plan


# ---------------------------------------------------------------------------
# assembly structure


def test_assemble_single_edge_matches_hand_problem():
    # unit edge, no uncertainty: reduced Laplacian is the 1x1 matrix [2]
    # and P = I / 1: the problem is max c s.t. 4 - c >= 0
    asm = assemble(const_adjacency([[0.0, 1.0], [1.0, 0.0]]))
    prob = asm.problem
    assert prob.n_vars == 1
    assert asm.delta_indices == []
    assert len(prob.lmis) == 1
    blk = prob.lmis[asm.main_lmi]
    assert blk.size == 1
    np.testing.assert_allclose(blk.const, [[4.0]])
    assert np.flatnonzero(np.diff(blk.columns.indptr)).tolist() \
        == [asm.c_index]
    np.testing.assert_allclose(blk.value(np.array([1.0])), [[3.0]])
    assert prob.objective == [1.0]


def test_assemble_counts_fifty_agent_plan():
    # affine weights in one parameter, 50 agents: the closed form, the
    # refusal's bound, counts 1 bound + 1176 Gram offsets + 1225 multiplier
    # variables.  With phi_H = (t, 1) each offset is the antisymmetric part
    # of the off-diagonal block at one (u, v), u < v, so the assembly keeps
    # one per pair on the pattern of the Haar reduced Laplacian
    rng = np.random.default_rng(5)
    n = 50
    w = {}
    for i in range(n):
        w[(i, (i + 1) % n)] = {(0,): 0.2, (1,): 0.05}
    adj = oracles.adjacency(n, w, 1, [unit_disk(1)], [(-1.0, 1.0)])
    asm = assemble(adj)
    assert asm.plan == DegreePlan(1, (0,))
    assert asm.plan.n_vars(1, 49) == 1 + 1176 + 1225
    pairs = np.count_nonzero(np.triu(oracles.haar_pattern(adj), 1))
    assert asm.problem.n_vars == 1 + pairs + 1225 == 1 + 227 + 1225
    assert asm.problem.lmis[asm.main_lmi].size == 98


def test_assemble_fifty_agent_holds_a_few_batches():
    # the multiplier columns go through gram_image BATCH_BYTES of
    # size_H-square images at a time; 256 columns at a time held 72 MB
    adj = ScenarioSpec.load(builtin_path("fifty_agent")).adjacency
    tracemalloc.start()
    try:
        assemble(adj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_assemble_lmi_expands_to_pencil_identity():
    # independent route: for random variable values, the main LMI block must
    # Gram-expand to P L + L P - c |phi|^2 I - R g with P = I / s, checked
    # numerically
    rng = np.random.default_rng(11)
    n, r = 4, 2
    s = n - 1
    weights = {(i, j): dict(zip(
        [(0, 0), (1, 0), (0, 1)], rng.standard_normal(3).tolist()))
        for i in range(n) for j in range(i + 1, n)}
    g = unit_disk(r)
    adj = oracles.adjacency(n, weights, r, [g],
                            [(-1.0, 1.0), (-1.0, 1.0)])
    # the problem is written in the Haar basis
    L_hat = reduced_laplacian(laplacian(adj), oracles.haar_basis(n))
    asm = assemble(adj)
    y = rng.standard_normal(asm.problem.n_vars)
    G = asm.problem.lmis[asm.main_lmi].value(y)
    expanded = oracles.gram_expand_matrix(G, asm.phi_H, s)

    c = y[asm.c_index]
    R_bar = asm.r_vars[0].value(y)
    P_num = np.eye(s) / s
    for _ in range(20):
        theta = rng.uniform(-1, 1, size=r)
        QR = np.kron(asm.phi_R[0].eval_batch(theta)[0], np.eye(s))
        R_num = QR @ R_bar @ QR.T
        L_num = L_hat(theta)
        phi = asm.phi_H.eval_batch(theta)[0]
        want = (P_num @ L_num + L_num.T @ P_num
                - c * float(phi @ phi) * np.eye(s)
                - adj.omega(theta)[0, 0] * R_num)
        np.testing.assert_allclose(expanded(theta), want, atol=1e-10)


@pytest.mark.parametrize("case", ["six_agent", "adversarial", "fifty_agent",
                                  "disk"])
def test_certify_matches_the_full_helmert_relaxation(case):
    # certify solves in the Haar basis with the Gram offsets on the
    # pattern, a restriction of the full relaxation that the oracle solves
    # in the Helmert basis.  sdp.solve stops at a relative gap of tol =
    # 1e-8 over 1 + |pobj| + |dobj|, so each c* lies within tol (1 + 2|c*|)
    # of its problem's optimum.  The restriction loses nothing on these
    # cases (on fifty_agent's class the closed-form certificate has no
    # offsets at all), so the two agree within twice that.  Where the exact
    # worst case is known, it lies on the unit sphere of the region, where
    # |phi_H|^2 = 1 + |theta|^2 = 2 for d_H >= 1, and the certified
    # 2 Lhat / s >= c* |phi_H|^2 I gives c* s <= worst there; with the
    # constant phi_H alone (d_H = 0) it gives c* s / 2 <= worst
    adjs = [adj for _, adj in oracles.disk_scenarios()] if case == "disk" \
        else [ScenarioSpec.load(builtin_path(case)).adjacency]
    for adj in adjs:
        res = certify(adj)
        sol, full = oracles.helmert_certify(adj)
        assert res.solution.status is sol.status is sdp.SdpStatus.OPTIMAL
        assert res.connected == (refusals(full, adj) == [])
        c_star = res.certificate.c_star
        assert abs(c_star - full.c_star) <= 2e-8 * (1 + 2 * abs(c_star))
        worst = oracles.worst_lambda2(adj.N, oracles.uncertainty_records(adj))
        if worst is not None:
            weight = 2 if res.certificate.plan.d_H else 1
            assert c_star * (adj.N - 1) * weight / 2 <= worst


@pytest.mark.parametrize("case", ["six_agent", "fifty_agent"])
def test_the_certificate_needs_its_map_into_the_helmert_frame(monkeypatch,
                                                              case):
    # certify solves in the Haar basis and maps the solution into the
    # Helmert frame of the replay.  With the replay's basis patched to the
    # Haar one the map is the identity: that certificate holds in the Haar
    # frame, and fails the Gram identity in the Helmert frame, while the
    # certificate certify writes passes there
    adj = ScenarioSpec.load(builtin_path(case)).adjacency
    assert certify(adj).connected
    with monkeypatch.context() as patch:
        patch.setattr(certifier, "reduced_basis", haar_basis)
        res = certify(adj)
    assert res.connected
    failures = refusals(res.certificate, adj)
    assert len(failures) == 1
    assert failures[0].startswith("Gram identity violated")


# ---------------------------------------------------------------------------
# certified bounds against hand-derived optima


def test_single_unit_edge():
    # reduced Laplacian [2] and P = I / 1, so the problem is max c s.t.
    # 4 - c >= 0
    adj = const_adjacency([[0.0, 1.0], [1.0, 0.0]])
    res = certify(adj)
    assert res.solution.ok
    assert res.connected
    assert res.certificate.c_star == pytest.approx(4.0, abs=1e-7)
    np.testing.assert_allclose(res.certificate.P_bar, [[1.0]], atol=1e-7)


def test_path_three_vertices():
    W = np.zeros((3, 3))
    W[0, 1] = W[1, 0] = 1.0
    W[1, 2] = W[2, 1] = 1.0
    res = certify(const_adjacency(W))
    assert res.connected
    # 2 lambda_2 / s with s = 2: the Laplacian's spectrum is 0, 1, 3
    lam2 = float(np.linalg.eigvalsh(np.diag(W.sum(axis=1)) - W)[1])
    assert lam2 == pytest.approx(1.0, abs=1e-12)
    assert res.certificate.c_star == pytest.approx(2.0 * lam2 / 2, abs=1e-6)


def test_edge_affine_weight_certifies_at_one():
    w = {(0,): 1.0, (1,): 0.5}
    adj = oracles.adjacency(2, {(0, 1): w}, 1,
                            [unit_disk(1)], [(-1.0, 1.0)])
    res = certify(adj)
    assert res.connected
    assert res.certificate.c_star == pytest.approx(1.0, abs=1e-6)
    rep = verify_certificate(res.certificate, adj, n_samples=500, seed=3)
    assert rep.ok, rep.failures


def test_edge_weight_vanishing_inside_region():
    w = {(1,): 1.0}
    adj = oracles.adjacency(2, {(0, 1): w}, 1,
                            [unit_disk(1)], [(-1.0, 1.0)])
    res = certify(adj)
    assert res.solution.ok
    assert not res.connected
    assert res.certificate.c_star == pytest.approx(-2.0, abs=1e-6)


def test_disconnected_pair_of_edges():
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    res = certify(const_adjacency(W))
    assert res.solution.ok
    assert not res.connected
    assert abs(res.certificate.c_star) <= 1e-6


def test_verdict_matches_eigenvalues_on_random_graphs():
    # small-scale version of the acceptance sweep: SDP verdict against a
    # plain eigenvalue computation
    rng = np.random.default_rng(23)
    for trial in range(20):
        n = int(rng.integers(3, 9))
        W = np.zeros((n, n))
        if trial % 2 == 0:
            # spanning tree plus extras: connected by construction
            for j in range(1, n):
                i = int(rng.integers(0, j))
                W[i, j] = W[j, i] = rng.uniform(0.1, 2.0)
        else:
            # leave one vertex isolated
            for j in range(2, n):
                i = int(rng.integers(1, j))
                W[i, j] = W[j, i] = rng.uniform(0.1, 2.0)
        for _ in range(n):
            i, j = rng.integers(0, n, size=2)
            if i != j and W[i, j] == 0.0 and not (trial % 2 and 0 in (i, j)):
                W[i, j] = W[j, i] = rng.uniform(0.1, 2.0)
        lam2 = np.linalg.eigvalsh(np.diag(W.sum(axis=1)) - W)[1]
        res = certify(const_adjacency(W))
        assert res.solution.ok
        assert res.connected == (lam2 > 1e-3), \
            f"trial {trial}: c*={res.certificate.c_star:.3e}, " \
            f"lambda2={lam2:.3e}"


def test_two_parameter_triangle():
    r = 2
    w01 = {(0, 0): 1.0, (1, 0): 0.3}
    w12 = {(0, 0): 1.2, (0, 1): -0.4}
    w02 = {(0, 0): 0.8, (1, 0): 0.1, (0, 1): 0.1}
    adj = oracles.adjacency(
        3, {(0, 1): w01, (1, 2): w12, (0, 2): w02}, r,
        [unit_disk(r)], [(-1.0, 1.0), (-1.0, 1.0)])
    res = certify(adj)
    assert res.connected
    rep = verify_certificate(res.certificate, adj, n_samples=800, seed=7)
    assert rep.ok, rep.failures
    sweep = sample_lambda2(adj, n_samples=2000, seed=9)
    assert sweep.min_value > 0.0


# ---------------------------------------------------------------------------
# certificates


def certified_edge():
    w = {(0,): 1.0, (1,): 0.5}
    adj = oracles.adjacency(2, {(0, 1): w}, 1,
                            [unit_disk(1)], [(-1.0, 1.0)])
    return adj, certify(adj)


def test_certificate_json_roundtrip(tmp_path):
    # the gate replays the certificate in memory; the file must hold the
    # same bits, for one parameter on an interval and for six_agent's two
    # parameters on a disk
    six = ScenarioSpec.load(builtin_path("six_agent")).adjacency
    for k, (adj, res) in enumerate([certified_edge(), (six, certify(six))]):
        cert = res.certificate
        path = tmp_path / f"cert{k}.json"
        cert.save(path)
        doc = json.loads(path.read_text())
        assert doc["degree_plan"]["d_P"] == 0
        loaded = Certificate.load(path)
        assert loaded.c_star == cert.c_star
        assert loaded.plan == cert.plan
        assert len(loaded.R_bars) == len(cert.R_bars) == adj.omega.rows
        for a, b in zip([loaded.P_bar, loaded.delta, *loaded.R_bars],
                        [cert.P_bar, cert.delta, *cert.R_bars]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        rep = verify_certificate(loaded, adj, n_samples=200, seed=0)
        assert rep.ok, rep.failures


def test_certificate_rejects_unknown_format():
    with pytest.raises(CertifierError):
        Certificate.from_dict({"format": "something-else"})


def test_certificate_threshold_is_not_read_from_the_file():
    # a file cannot lower the bar its own bound has to clear
    adj, res = certified_edge()
    doc = res.certificate.to_dict()
    assert doc["threshold"] == 1e-6
    doc["c_star"] = -5.0
    refused = ["c_star=-5.0 does not clear its threshold 1e-06"]
    assert refusals(Certificate.from_dict(doc), adj)[:1] == refused
    doc["threshold"] = -10.0
    with pytest.raises(CertifierError, match="threshold"):
        Certificate.from_dict(doc)
    del doc["threshold"]
    assert refusals(Certificate.from_dict(doc), adj)[:1] == refused


@pytest.mark.parametrize("where, key", [("", "c_starr"),
                                        ("degree_plan", "d_Q")])
def test_certificate_refuses_an_unknown_key(where, key):
    # an extra key, such as a misspelt c_star beside the real one, used
    # to load without notice
    _adj, res = certified_edge()
    doc = res.certificate.to_dict()
    (doc[where] if where else doc)[key] = 1.0
    path = f"{where}.{key}" if where else key
    with pytest.raises(ValueError, match=rf"^{path}: unknown key"):
        Certificate.from_dict(doc)


def _edit(doc, path, value):
    """doc with the value at key path path (a tuple) set to value, or
    deleted for value DELETE."""
    *parents, key = path
    for k in parents:
        doc = doc[k]
    if value is DELETE:
        del doc[key]
    else:
        doc[key] = value


DELETE = object()


@pytest.mark.parametrize("path, value, message", [
    # a bare KeyError('c_star') before the typed readers
    (("c_star",), DELETE, "c_star: missing"),
    # int()'s own message
    (("n_agents",), "fifty", "n_agents: must be an integer >= 2"),
    # loaded as 50
    (("n_agents",), 50.5, "n_agents: must be an integer >= 2"),
    # loaded as 1.0
    (("c_star",), True, "c_star: must be a number"),
    # NumPy's inhomogeneous-shape error
    (("delta",), [[0.0], [0.0, 1.0]], r"delta\[0\]: must be a number"),
    (("P_bar",), [[0.5], [0.5, 0.5]], r"P_bar\[1\]: must be 1 numbers"),
    (("R_bars",), {"0": []}, "R_bars: must be a list"),
    (("R_bars", 0), 1.0, r"R_bars\[0\]: must be rows of numbers"),
    (("degree_plan", "d_H"), "1", "degree_plan.d_H: must be an integer"),
    (("degree_plan", "d_R", 0), 0.5,
     r"degree_plan.d_R\[0\]: must be an integer"),
    (("degree_plan",), [], "degree_plan: must be an object")])
def test_certificate_names_the_key_path_of_a_bad_value(path, value,
                                                        message):
    # the typed readers of a scenario file, with its messages
    _adj, res = certified_edge()
    doc = res.certificate.to_dict()
    _edit(doc, path, value)
    with pytest.raises(ValueError, match=f"^{message}"):
        Certificate.from_dict(doc)


def test_certificate_rejects_polynomial_pencil_matrix():
    _adj, res = certified_edge()
    doc = res.certificate.to_dict()
    doc["degree_plan"]["d_P"] = 1
    with pytest.raises(CertifierError, match="d_P"):
        Certificate.from_dict(doc)


def test_verify_rejects_inflated_bound():
    adj, res = certified_edge()
    cert = res.certificate
    fake = Certificate(cert.n_agents, cert.r, cert.plan, 2.0 * cert.c_star,
                       cert.P_bar, cert.R_bars, cert.delta)
    rep = verify_certificate(fake, adj, n_samples=500, seed=5)
    assert not rep.ok
    assert rep.min_eigenvalues[-1] < -1e-3 \
        or rep.sampled_pencil_margin < -1e-3


def test_verify_rejects_tampered_P():
    adj, res = certified_edge()
    cert = res.certificate
    fake = Certificate(cert.n_agents, cert.r, cert.plan, cert.c_star,
                       cert.P_bar - 0.5 * np.eye(cert.P_bar.shape[0]),
                       cert.R_bars, cert.delta)
    rep = verify_certificate(fake, adj, n_samples=0)
    assert not rep.ok
    assert rep.failures


def test_verify_rejects_wrong_graph_size():
    adj, res = certified_edge()
    other = const_adjacency(np.zeros((3, 3)))
    with pytest.raises(CertifierError):
        verify_certificate(res.certificate, other)


def test_verify_rejects_a_plan_other_than_the_automatic_one():
    # certify writes only the automatic plan, d_H = 1, d_R = (0,) here
    adj, res = certified_edge()
    cert = res.certificate
    for plan in (DegreePlan(2, (1,)), DegreePlan(1, ())):
        fake = Certificate(cert.n_agents, cert.r, plan, cert.c_star,
                           cert.P_bar, cert.R_bars, cert.delta)
        with pytest.raises(CertifierError) as err:
            verify_certificate(fake, adj, n_samples=0)
        # the message names both plans
        assert str(plan) in str(err.value)
        assert str(cert.plan) in str(err.value)


def test_verify_perturbed_delta_breaks_identity():
    # the triangle's plan has antisymmetric-block null directions, so a
    # perturbed offset reshuffles the Gram matrix away from the solved cone
    r = 2
    w01 = {(0, 0): 1.0, (1, 0): 0.3}
    w12 = {(0, 0): 1.2, (0, 1): -0.4}
    w02 = {(0, 0): 0.8, (1, 0): 0.1, (0, 1): 0.1}
    adj = oracles.adjacency(
        3, {(0, 1): w01, (1, 2): w12, (0, 2): w02}, r,
        [unit_disk(r)], [(-1.0, 1.0), (-1.0, 1.0)])
    res = certify(adj)
    cert = res.certificate
    assert len(cert.delta) == 3
    bad = cert.delta.copy()
    bad[0] += 1.0
    fake = Certificate(cert.n_agents, cert.r, cert.plan, cert.c_star,
                       cert.P_bar, cert.R_bars, bad)
    rep = verify_certificate(fake, adj, n_samples=0)
    assert rep.min_eigenvalues[-1] < -1e-3


def _sampled_margins_per_sample(cert, adj, n_samples, seed):
    """Reference for the sampled route of verify_certificate, which sweeps
    the full N-square pencil: the least eigenvalue of the reduced pencil
    P_bar Lhat + Lhat P_bar, one sample at a time, each reduced-Laplacian
    entry an exactly rounded sum of terms.  Also returns the smallest
    eigenvalue of the constant pencil matrix."""
    L_hat = reduced_laplacian(laplacian(adj), reduced_basis(adj.N))
    thetas = adj.sample_omega(np.random.default_rng(seed), n_samples)
    s = L_hat.rows
    phi_H = power_vector(adj.r, cert.plan.d_H)
    norm2 = np.sum(phi_H.eval_batch(thetas) ** 2, axis=1)
    entries = [[L_hat.terms(i, j) for j in range(s)] for i in range(s)]
    P_num = cert.P_bar
    pencil = float("inf")
    for t, theta in enumerate(thetas):
        L_num = np.array([[math.fsum(c * float(np.prod(theta ** np.array(e)))
                                     for e, c in terms.items())
                           for terms in row] for row in entries])
        H_num = P_num @ L_num + L_num.T @ P_num
        pencil = min(pencil, float(np.linalg.eigvalsh(
            H_num - cert.c_star * norm2[t] * np.eye(s))[0]))
    return pencil, float(np.linalg.eigvalsh(P_num)[0])


def _random_disk_adjacency(seed, n=5):
    """Random connected graph whose weights stay positive on the unit disk."""
    rng = np.random.default_rng(seed)
    pairs = {(int(rng.integers(0, j)), j) for j in range(1, n)}
    pairs |= {(0, n - 1), (1, 3)}
    weights = {
        e: {(0, 0): float(rng.uniform(1.0, 2.0)),
                          (1, 0): float(rng.uniform(-0.3, 0.3)),
                          (0, 1): float(rng.uniform(-0.3, 0.3))}
        for e in sorted(pairs)}
    return oracles.adjacency(n, weights, 2, [unit_disk(2)],
                             [(-1.0, 1.0), (-1.0, 1.0)])


def _oracle_case(case):
    """Adjacency of a shipped scenario, of _random_disk_adjacency(seed)
    for "random_disk_<seed>", of a three-vertex path with one quartic
    weight, whose plan has d_H = 2 and a degree-1 multiplier, or of one
    edge with a zero region polynomial, whose multiplier columns in the
    main block are all zero."""
    if case.startswith("random_disk_"):
        return _random_disk_adjacency(int(case.rsplit("_", 1)[1]))
    if case == "zero_region":
        return oracles.adjacency(
            2, {(0, 1): {(0,): 1.0, (1,): 0.5}}, 1,
            [{}, unit_disk(1)], [(-1.0, 1.0)])
    if case == "quartic_path":
        w = {(0,): 1.0, (2,): 0.5, (4,): 0.25}
        return oracles.adjacency(
            3, {(0, 1): w, (1, 2): {(0,): 1.0}}, 1,
            [unit_disk(1)], [(-1.0, 1.0)])
    return ScenarioSpec.load(builtin_path(case)).adjacency


# the assembled variable count of each _oracle_case, with the Gram offsets
# on the pattern of the Haar reduced Laplacian
SOLVED = {"six_agent": 43, "adversarial": 1, "fifty_agent": 1459,
          "random_disk_0": 29, "quartic_path": 17, "zero_region": 5}


@pytest.mark.parametrize("case, n_vars", [
    ("six_agent", 46), ("adversarial", 1), ("fifty_agent", 2402),
    ("random_disk_0", 29), ("quartic_path", 17), ("zero_region", 5)])
def test_closed_form_variable_count_is_the_assembled_one(case, n_vars):
    # the closed form counts every Gram offset: it is the bound that
    # MAX_SDP_VARS refuses on.  The assembled problem keeps the offsets on
    # the pattern, counted here from the dense null basis
    adj = _oracle_case(case)
    asm = assemble(adj)
    assert asm.plan.n_vars(adj.r, asm.s) == n_vars
    kept = len(oracles.on_pattern(
        oracles.null_basis(adj.r, asm.plan.d_H, asm.s),
        oracles.haar_pattern(adj), len(asm.phi_H)))
    multipliers = sum(sdp.svec_dim(len(pv) * asm.s) for pv in asm.phi_R)
    assert asm.problem.n_vars == 1 + multipliers + kept == SOLVED[case]


# six_agent with the exponent of its first weight term raised: the degree
# plan and its closed-form variable count.  Without the limit, 40 went on
# to an SDP whose Schur matrix takes 1206451^2 * 8 bytes (11.6 TB), and
# 10^6 first enumerated power vectors of 1.25e11 monomials
@pytest.mark.parametrize("exponent, plan, n_vars", [
    (40, "d_H=20 d_R=[19]", 1206451),
    (10 ** 6, "d_H=500000 d_R=[499999]", 390628125004062498750001)])
def test_relaxation_above_the_variable_limit_is_refused_unbuilt(
        monkeypatch, exponent, plan, n_vars):
    cert = certify(
        ScenarioSpec.load(builtin_path("six_agent")).adjacency).certificate
    doc = json.loads(builtin_path("six_agent").read_text())
    doc["uncertainty"]["weights"][0]["terms"][0]["exponents"] = [exponent, 0]
    adj = ScenarioSpec.from_dict(doc).adjacency
    assert n_vars > certifier.MAX_SDP_VARS

    def unbuilt(r, d):
        raise AssertionError(f"power vector of degree {d} built")

    monkeypatch.setattr(certifier, "power_vector", unbuilt)
    message = (f"degree plan {plan} asks for {n_vars} SDP variables, above "
               f"the limit of {certifier.MAX_SDP_VARS}")
    with pytest.raises(CertifierError) as err:
        certify(adj)
    assert str(err.value) == message
    # a stored certificate meets the same limit, as a refusal
    assert refusals(cert, adj) == [message]


@pytest.mark.parametrize("case", [
    "six_agent", "adversarial", "fifty_agent", "random_disk_31",
    "random_disk_0", "random_disk_1", "random_disk_2", "quartic_path",
    "zero_region"])
def test_compiled_columns_equal_the_per_variable_route(case):
    # every block's columns, entry for entry, against the dense route of
    # one basis matrix, Gram image and null-basis element per variable
    adj = _oracle_case(case)
    asm = assemble(adj)
    got = asm.problem.compile_columns()
    ref = oracles.assembly_columns(asm, adj)
    assert len(got) == len(ref) == len(asm.r_vars) + 1
    for A, B in zip(got, ref):
        assert A.shape == B.shape
        np.testing.assert_array_equal(A.indptr, B.indptr)
        np.testing.assert_array_equal(A.indices, B.indices)
        np.testing.assert_array_equal(A.data, B.data)


@pytest.mark.parametrize("case", ["six_agent", "random_disk",
                                  "small_general", "stored"])
def test_batched_sampled_margins_match_per_sample_loop(case, monkeypatch):
    # the loop sweeps the reduced pencil P_bar Lhat + Lhat P_bar, the
    # replay the full N-square one, in batches of length pencils, two full
    # ones and a partial one.  A general P_bar, in a zero certificate that
    # fails the Gram identity, and the stored fifty_agent certificate make
    # the full pencil dense
    if case == "small_general":
        adj, P_bar = screened_case(case)
        cert = zero_certificate(adj, 0.01, P_bar)
    elif case == "stored":
        adj = ScenarioSpec.load(builtin_path("fifty_agent")).adjacency
        cert = Certificate.load(STORED)
    else:
        adj = ScenarioSpec.load(builtin_path("six_agent")).adjacency \
            if case == "six_agent" else _random_disk_adjacency(31)
        cert = certify(adj).certificate
    N = adj.N
    n_samples, length = (150, 64) if case == "stored" else (600, 256)
    monkeypatch.setattr(sdp, "BATCH_BYTES", length * 8 * N * N)
    assert sdp.batch_length(N, N) == length
    rep = verify_certificate(cert, adj, n_samples=n_samples, seed=3)
    pencil, P_min = _sampled_margins_per_sample(cert, adj, n_samples, 3)
    assert rep.ok == (case != "small_general"), rep.failures
    assert rep.sampled_pencil_margin == pytest.approx(pencil, abs=1e-12)
    assert rep.min_eigenvalues[0] == pytest.approx(P_min, abs=1e-12)


# ---------------------------------------------------------------------------
# least eigenvalues


def _spectral_stack(n, rng):
    """Symmetric n-square matrices: two random ones at different scales,
    then the degenerate spectra, identity, zero, a repeated least
    eigenvalue and rank one."""
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    repeated = np.linspace(-1.0, 2.0, n)
    repeated[:2] = -1.0
    v = rng.normal(size=(n, 1))
    X = rng.normal(size=(2, n, n))
    return np.stack([X[0] + X[0].T, 1e3 * (X[1] + X[1].T), np.eye(n),
                     np.zeros((n, n)), (Q * repeated) @ Q.T, v @ v.T])


ORDERS = [1, 2, certifier.SUBSET_ORDER - 1, certifier.SUBSET_ORDER, 49, 98]


@pytest.mark.parametrize("n, k", [(n, k) for n in ORDERS for k in (1, 2)
                                  if k <= n])
def test_least_eigenvalues_match_eigvalsh(n, k):
    stack = _spectral_stack(n, np.random.default_rng([n, k]))
    got = certifier.least_eigenvalues(stack, k)
    eigs = np.linalg.eigvalsh(stack)
    scale = np.maximum(1.0, np.abs(eigs).max(axis=1))
    assert got.shape == (len(stack), k)
    assert np.all(np.abs(got - eigs[:, :k]) <= 1e-12 * scale[:, None])
    # leading axes of any shape, and a single matrix
    np.testing.assert_array_equal(
        certifier.least_eigenvalues(stack.reshape(2, 3, n, n), k),
        got.reshape(2, 3, k))
    np.testing.assert_array_equal(
        certifier.least_eigenvalues(stack[4], k), got[4])


def test_least_eigenvalues_name_the_sample_of_a_failed_call(monkeypatch):
    inner = certifier.lapack.dsyevx

    def fail_on_third(a, **kwargs):
        calls.append(a)
        w, z, m, ifail, info = inner(a, **kwargs)
        return (w, z, m, ifail, 1) if len(calls) == 3 else \
            (w, z, m, ifail, info)

    calls = []
    monkeypatch.setattr(certifier.lapack, "dsyevx", fail_on_third)
    n = certifier.SUBSET_ORDER
    with pytest.raises(CertifierError, match="dsyevx failed at sample 7"):
        certifier.least_eigenvalues(np.zeros((4, n, n)), first=5)


# ---------------------------------------------------------------------------
# sampled connectivity sweep


def test_sample_lambda2_affine_edge():
    # lambda_2 = 2 + theta on theta in [-1, 1], minimized at the left edge
    w = {(0,): 1.0, (1,): 0.5}
    adj = oracles.adjacency(2, {(0, 1): w}, 1,
                            [unit_disk(1)], [(-1.0, 1.0)])
    sweep = sample_lambda2(adj, n_samples=4000, seed=2)
    assert len(sweep.values) == 4000
    assert 1.0 <= sweep.min_value < 1.05
    assert sweep.thetas[sweep.values.argmin()][0] < -0.95
    np.testing.assert_allclose(sweep.values,
                               2.0 + sweep.thetas[:, 0], atol=1e-9)


def test_sample_lambda2_reproducible():
    adj, _res = None, None
    w = {(0,): 1.0, (1,): 0.5}
    adj = oracles.adjacency(2, {(0, 1): w}, 1,
                            [unit_disk(1)], [(-1.0, 1.0)])
    a = sample_lambda2(adj, n_samples=300, seed=4)
    b = sample_lambda2(adj, n_samples=300, seed=4)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.thetas, b.thetas)


def test_sample_lambda2_without_a_seed_is_deterministic():
    adj = oracles.adjacency(2, {(0, 1): {(0,): 1.0, (1,): 0.5}}, 1,
                            [unit_disk(1)], [(-1.0, 1.0)])
    a = sample_lambda2(adj, n_samples=300)
    b = sample_lambda2(adj, n_samples=300)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.thetas, b.thetas)


def test_sample_lambda2_rejects_nonpositive_count():
    adj = const_adjacency([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(CertifierError):
        sample_lambda2(adj, n_samples=0)


# the monomials of degree <= 2 in two parameters
QUADRATIC = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def quadratic_adjacency(N, coeffs):
    """Adjacency with weight sum_q coeffs[i, j][q] theta^QUADRATIC[q] on
    each listed pair, theta in the unit disk."""
    return oracles.adjacency(
        N, {p: dict(zip(QUADRATIC, c)) for p, c in coeffs.items()}, 2,
        [unit_disk(2)], [(-1.0, 1.0), (-1.0, 1.0)])


def assert_eigenvalue_matches_dense_oracle(N, coeffs, thetas, values, k):
    """values against the k-th least eigenvalue by eigvalsh of the
    Laplacian assembled in NumPy from coeffs at thetas, to 1e-10 of
    max(1, ||L(theta)||)."""
    t1, t2 = thetas.T
    powers = np.stack([t1 ** a * t2 ** b for a, b in QUADRATIC], axis=1)
    W = np.zeros((len(powers), N, N))
    for (i, j), c in coeffs.items():
        W[:, i, j] = W[:, j, i] = powers @ np.asarray(c)
    eigs = np.linalg.eigvalsh(np.eye(N) * W.sum(-1)[..., None] - W)
    scale = np.maximum(1.0, np.abs(eigs).max(axis=1))
    assert np.all(np.abs(values - eigs[:, k - 1]) <= 1e-10 * scale)


def assert_lambda2_matches_dense_oracle(N, coeffs, sweep):
    """sweep's values against the oracle's lambda_2 at sweep's points."""
    assert_eigenvalue_matches_dense_oracle(N, coeffs, sweep.thetas,
                                           sweep.values, 2)


def assert_sweep_matches_dense_oracle(N, coeffs, adj, thetas):
    """eigenvalue_at of adj's Laplacian on its band, for k = 1 and 2,
    against the oracle's at thetas."""
    L = laplacian(adj)
    for k in (1, 2):
        assert_eigenvalue_matches_dense_oracle(
            N, coeffs, thetas,
            certifier.eigenvalue_at(L, thetas, k, band_form(L)), k)


@pytest.mark.parametrize("seed", range(8))
def test_band_route_matches_dense_eigenvalues_on_sparse_graphs(seed):
    # a ring plus a few short random chords, random degree-2 weights
    rng = np.random.default_rng([seed, 26])
    N = int(rng.integers(16, 61))
    pairs = {(i, (i + 1) % N) for i in range(N)}
    for i in rng.integers(N, size=int(rng.integers(1, N // 10 + 1))):
        pairs.add((int(i), int(i + rng.integers(2, 4)) % N))
    coeffs = {(min(p), max(p)): rng.normal(size=len(QUADRATIC))
              for p in pairs}
    adj = quadratic_adjacency(N, coeffs)
    assert band_form(laplacian(adj)) is not None
    sweep = sample_lambda2(adj, n_samples=300, seed=seed)
    assert_lambda2_matches_dense_oracle(N, coeffs, sweep)
    assert_sweep_matches_dense_oracle(N, coeffs, adj, sweep.thetas)


def test_band_route_on_a_disconnected_path():
    # two paths of 10 agents with positive weights: lambda_2 = 0
    coeffs = {(i, i + 1): [1.0, 0.3, -0.2, 0.0, 0.1, 0.2]
              for i in range(19) if i != 9}
    adj = quadratic_adjacency(20, coeffs)
    assert band_form(laplacian(adj)).rows == 2
    sweep = sample_lambda2(adj, n_samples=300, seed=1)
    assert_lambda2_matches_dense_oracle(20, coeffs, sweep)
    assert np.abs(sweep.values).max() < 1e-10
    assert_sweep_matches_dense_oracle(20, coeffs, adj, sweep.thetas)


def test_band_route_on_an_edgeless_graph():
    adj = quadratic_adjacency(8, {})
    assert band_form(laplacian(adj)).rows == 1
    np.testing.assert_array_equal(
        sample_lambda2(adj, n_samples=50, seed=2).values, 0.0)


@pytest.mark.parametrize("N, banded", [(12, True), (11, False)])
def test_band_route_starts_at_the_rule_boundary(N, banded):
    # a ring has half-bandwidth 2 in reverse Cuthill-McKee order, so the
    # band route takes it from N = 4 (2 + 1) = 12 agents on
    rng = np.random.default_rng(N)
    coeffs = {(min(i, (i + 1) % N), max(i, (i + 1) % N)):
              rng.normal(size=len(QUADRATIC)) for i in range(N)}
    adj = quadratic_adjacency(N, coeffs)
    band = band_form(laplacian(adj))
    assert (band.rows == 3) if banded else band is None
    assert_lambda2_matches_dense_oracle(
        N, coeffs, sample_lambda2(adj, n_samples=200, seed=3))


@pytest.mark.parametrize("graph, orderings", [("complete", 0), ("ring", 1)])
def test_band_form_orders_only_a_pattern_whose_rows_allow_a_band(
        monkeypatch, graph, orderings):
    # a full row of the complete graph on 24 agents rules out every band
    # without the ordering; the rows of 3 of a ring on 11 agents leave
    # b >= 1, which would fit, so only the ordering finds its b = 2
    if graph == "complete":
        N, pairs = 24, [(i, j) for i in range(24) for j in range(i + 1, 24)]
    else:
        N, pairs = 11, [(i, i + 1) for i in range(10)] + [(0, 10)]
    rng = np.random.default_rng(N)
    adj = quadratic_adjacency(
        N, {p: rng.normal(size=len(QUADRATIC)) for p in pairs})
    calls = oracles.count_calls(monkeypatch,
                                (certifier, "reverse_cuthill_mckee"))
    assert band_form(laplacian(adj)) is None
    assert calls == {"reverse_cuthill_mckee": orderings}


def signed_ring(N):
    """Weight term dicts of an N-ring with unit weights but w01 = 3 theta
    - 1, theta in [-1, 1].  The rest of the ring is a path of resistance
    N - 1, so L(theta) is indefinite, mu_1 < 0, where w01 < -1 / (N - 1)."""
    w = {(i, i + 1): {(0,): 1.0} for i in range(1, N - 1)}
    w[(0, 1)] = {(0,): -1.0, (1,): 3.0}
    w[(0, N - 1)] = {(0,): 1.0}
    return w


def reduced_pencils(N, w, thetas):
    """The reduced pencils 2 M' L(theta) M / s, s = N - 1, of the weight
    term dicts w at thetas, from the weights evaluated in NumPy and an
    orthonormal basis M of the complement of the ones vector taken by QR,
    independent of the Helmert basis."""
    W = np.zeros((len(thetas), N, N))
    for (i, j), terms in w.items():
        W[:, i, j] = W[:, j, i] = sum(
            c * np.prod(thetas ** np.array(e), axis=1)
            for e, c in terms.items())
    L = np.eye(N) * W.sum(-1)[..., None] - W
    M = np.linalg.qr(np.hstack([np.ones((N, 1)), np.eye(N)[:, 1:]]))[0]
    return 2 * M[:, 1:].T @ L @ M[:, 1:] / (N - 1)


def test_band_route_reads_mu_1_of_a_signed_ring(monkeypatch):
    # where mu_1 < 0 the second least eigenvalue of the full pencil is its
    # computed 0 on the ones vector, a rounding error of either sign: a
    # rule "lambda_2 > 0 gives mu_1 = lambda_2" misreads those points
    N, s = 30, 29
    w = signed_ring(N)
    adj = oracles.adjacency(N, w, 1, [unit_disk(1)], [(-1.0, 1.0)])
    full = MatrixPolynomial(N, N, 1, certifier.pencil_terms(
        np.eye(N) / s, laplacian(adj)))
    band = band_form(full)
    assert band is not None
    thetas = adj.sample_omega(np.random.default_rng(7), 300)
    calls = oracles.count_calls(monkeypatch, (certifier.lapack, "dsbevx"))
    values = certifier.least_on_complement(full, band)(thetas)
    pencils = reduced_pencils(N, w, thetas)
    mu_1 = np.linalg.eigvalsh(pencils)[:, 0]
    assert 50 < np.count_nonzero(mu_1 < 0) < 250
    scale = np.maximum(1.0, np.linalg.norm(pencils, 2, axis=(1, 2)))
    assert np.all(np.abs(values - mu_1) <= 1e-12 * scale)
    # k = 2 at every point, k = 1 only where mu_1 < 0
    assert calls == {"dsbevx": 300 + np.count_nonzero(mu_1 < 0)}

    # the replay's sampled margin, on the band, against the reduced pencils
    cert = certify(adj).certificate
    margin = verify_certificate(cert, adj, n_samples=300,
                                seed=7).sampled_pencil_margin
    expected = np.min(mu_1 - cert.c_star * (1 + thetas[:, 0] ** 2))
    assert margin == pytest.approx(expected, rel=0, abs=1e-12)


def test_dense_route_above_the_subset_order_matches_dense_eigenvalues(
        monkeypatch):
    # a complete graph has no band to take, and from SUBSET_ORDER agents on
    # its lambda_2 comes from one dsyevx call per point: the least of 300
    # takes 98 of them behind 360 Cholesky screens, and reading the values
    # sweeps all 300
    N = 24
    rng = np.random.default_rng(24)
    coeffs = {(i, j): rng.normal(size=len(QUADRATIC))
              for i in range(N) for j in range(i + 1, N)}
    adj = quadratic_adjacency(N, coeffs)
    assert band_form(laplacian(adj)) is None
    assert N >= certifier.SUBSET_ORDER
    calls = oracles.count_calls(monkeypatch, (certifier.lapack, "dsyevx"),
                                (certifier.lapack, "dpbtrf"))
    sweep = sample_lambda2(adj, n_samples=300, seed=5)
    assert calls == {"dsyevx": 98, "dpbtrf": 360}
    assert_lambda2_matches_dense_oracle(N, coeffs, sweep)
    assert calls == {"dsyevx": 398, "dpbtrf": 360}
    assert sweep.min_value == sweep.values.min()


def exhaustively(monkeypatch, sweep):
    """sweep() with sampled_minimum evaluating every point exactly."""
    with monkeypatch.context() as patch:
        patch.setattr(certifier, "SCREEN_ROUND", 10 ** 9)
        return sweep()


def zero_certificate(adj, c_star, P_bar=None):
    """A certificate for adj with zero multipliers and offsets: its sampled
    margin depends on c_star and P_bar alone, I / s by default."""
    _, L_hat, plan, _, phi_R, _, nulls = certifier._setup(
        adj, reduced_basis(adj.N))
    s = L_hat.rows
    return Certificate(adj.N, adj.r, plan, c_star,
                       np.eye(s) / s if P_bar is None else P_bar,
                       [np.zeros((len(pv) * s,) * 2) for pv in phi_R],
                       np.zeros(nulls.shape[1]))


STORED = Path(__file__).resolve().parents[1] / "bench" \
    / "fifty_agent_certificate.json"


def _count_eigenvalue_calls(monkeypatch):
    return oracles.count_calls(
        monkeypatch, (certifier.lapack, "dsbevx"),
        (certifier.lapack, "dsyevx"), (np.linalg, "eigvalsh"),
        (certifier.lapack, "dpbtrf"), (certifier, "_band_cholesky"))


# the Cholesky screens of 300 points, where 16 set the running minimum:
# one dpbtrf call per screened point on fifty_agent's band, and on
# six_agent's batched route one _band_cholesky call for each of the chunks
# of 256 and 28 points and one for a round; adversarial's region is one
# point (r = 0), evaluated without a screen
SCREENS = {"fifty_agent": {"dpbtrf": 284, "_band_cholesky": 0},
           "six_agent": {"dpbtrf": 0, "_band_cholesky": 3},
           "adversarial": {"dpbtrf": 0, "_band_cholesky": 0}}


@pytest.mark.parametrize("name, dsbevx_calls, eigvalsh_calls", [
    # fifty_agent: 23 of 300 points on L's band; six_agent: the 16 points
    # that set the running minimum, then those that fail the screen
    ("fifty_agent", 23, 0), ("six_agent", 0, 2), ("adversarial", 0, 1)])
def test_sample_lambda2_route_of_each_shipped_scenario(
        monkeypatch, name, dsbevx_calls, eigvalsh_calls):
    calls = _count_eigenvalue_calls(monkeypatch)
    sample_lambda2(ScenarioSpec.load(builtin_path(name)).adjacency,
                   n_samples=300, seed=0)
    assert calls == {"dsbevx": dsbevx_calls, "dsyevx": 0,
                     "eigvalsh": eigvalsh_calls, **SCREENS[name]}


@pytest.mark.parametrize("name, dsbevx_calls, dsyevx_calls, eigvalsh_calls", [
    # 23 of 300 points of the full pencil 2 L / s on L's band, each with a
    # clearly positive second eigenvalue, behind SCREENS, then P_bar,
    # R_bars[0] (both 49) and H (98)
    ("fifty_agent", 23, 3, 0),
    # P_bar, R_bars[0] (both 5) and H (15), then two batches of full
    # pencils, as in sample_lambda2, behind SCREENS: a full pencil of 6
    # agents has no band
    ("six_agent", 0, 0, 5),
    # P_bar and H (both 1), then the region's one full pencil
    ("adversarial", 0, 0, 3)])
def test_verify_certificate_route_of_each_shipped_scenario(
        monkeypatch, name, dsbevx_calls, dsyevx_calls, eigvalsh_calls):
    # the route depends only on the block orders and on P_bar, so a zero
    # certificate with the P_bar = I / s that certify writes takes it
    adj = ScenarioSpec.load(builtin_path(name)).adjacency
    cert = zero_certificate(adj, 0.0)
    calls = _count_eigenvalue_calls(monkeypatch)
    verify_certificate(cert, adj, n_samples=300, seed=0)
    assert calls == {"dsbevx": dsbevx_calls, "dsyevx": dsyevx_calls,
                     "eigvalsh": eigvalsh_calls, **SCREENS[name]}


def test_stored_general_certificate_takes_the_dense_full_route(
        monkeypatch):
    # the stored fifty_agent certificate's P_bar is not I / s, so its full
    # pencil is dense: 23 of 300 full pencils of order 50 take dsyevx
    # behind 284 screens, then P_bar, R_bars[0] and H
    adj = ScenarioSpec.load(builtin_path("fifty_agent")).adjacency
    cert = Certificate.load(STORED)
    s = adj.N - 1
    assert not np.array_equal(cert.P_bar, np.eye(s) / s)
    calls = _count_eigenvalue_calls(monkeypatch)
    assert verify_certificate(cert, adj, n_samples=300, seed=0).ok
    assert calls == {"dsbevx": 0, "dsyevx": 26, "eigvalsh": 0,
                     "dpbtrf": 284, "_band_cholesky": 0}


# ---------------------------------------------------------------------------
# sampled minima behind the Cholesky screen


@pytest.mark.parametrize("name", ["fifty_agent", "six_agent", "adversarial"])
def test_screened_minima_are_the_exhaustive_ones_bit_for_bit(monkeypatch,
                                                            name):
    adj = ScenarioSpec.load(builtin_path(name)).adjacency
    certs = [zero_certificate(adj, 1e-4)]
    if name == "fifty_agent":
        certs.append(Certificate.load(STORED))
    for seed in range(2):
        sweep = sample_lambda2(adj, n_samples=2000, seed=seed)
        assert sweep.min_value == sweep.values.min()
        for cert in certs:
            def margin():
                return verify_certificate(cert, adj, n_samples=500,
                                          seed=seed).sampled_pencil_margin
            assert margin() == exhaustively(monkeypatch, margin)


def constant_ring(N):
    """Weight term dicts of an N-ring whose weights do not depend on its
    one parameter: every sampled point ties."""
    w = {(i, i + 1): {(0,): 1.0 + i / N} for i in range(N - 1)}
    w[(0, N - 1)] = {(0,): 0.5}
    return w


def isolated_ring(N):
    """A ring of N - 1 agents with affine weights and agent N - 1 alone:
    lambda_2 is 0 at every point, up to rounding."""
    w = {(i, i + 1): {(0,): 1.0, (1,): 0.5} for i in range(N - 2)}
    w[(0, N - 2)] = {(0,): 1.0, (1,): -0.5}
    return w


def screened_case(name):
    """(adjacency, P_bar or None) of a generated graph of order >= 20, or,
    for a name that starts with small_, of order below SUBSET_ORDER and
    without a band, whose sweeps take the batched route."""
    rng = np.random.default_rng(len(name))
    small = name.startswith("small_")
    name = name.removeprefix("small_")
    if name in ("band", "dense"):
        N = 40 if name == "band" else 8 if small else 24
        pairs = [(i, i + 1) for i in range(N - 1)] + [(0, N - 1)] \
            if name == "band" else \
            [(i, j) for i in range(N) for j in range(i + 1, N)]
        coeffs = {p: rng.normal(size=len(QUADRATIC)) * 0.3 + np.eye(6)[0]
                  for p in pairs}
        return quadratic_adjacency(N, coeffs), None
    N = 10 if small else 30
    w = {"signed": signed_ring, "constant": constant_ring,
         "isolated": isolated_ring, "general": signed_ring}[name](N)
    adj = oracles.adjacency(N, w, 1, [unit_disk(1)], [(-1.0, 1.0)])
    if name != "general":
        return adj, None
    X = rng.normal(size=(N - 1, N - 1))
    P = X @ X.T + (N - 1) * np.eye(N - 1)
    return adj, (P + P.T) / (2 * np.trace(P))


SMALL_CASES = ["small_dense", "small_signed", "small_constant",
               "small_isolated", "small_general"]


@pytest.mark.parametrize("name", ["band", "dense", "signed", "constant",
                                  "isolated", "general"] + SMALL_CASES)
def test_screened_minima_match_the_exhaustive_ones(monkeypatch, name):
    # r = 2 on the band and dense graphs, r = 1 on the rings; the signed
    # ring has lambda_2 < 0 and mu_1 < 0 at some points, the isolated
    # vertex makes lambda_2 a rounding error everywhere, constant weights
    # tie every point, and a general P_bar makes the full pencil dense;
    # the small cases screen with the batched Cholesky
    adj, P_bar = screened_case(name)
    L = laplacian(adj)
    if name in SMALL_CASES:
        assert adj.N < certifier.SUBSET_ORDER and band_form(L) is None
    if P_bar is None:
        sweep = sample_lambda2(adj, n_samples=1000, seed=3)
        scale = max(1.0, np.abs(sweep.values).max())
        assert abs(sweep.min_value - sweep.values.min()) <= 1e-12 * scale
    for c_star in (0.0, -0.02, 0.01):
        cert = zero_certificate(adj, c_star, P_bar)

        def margin():
            return verify_certificate(cert, adj, n_samples=500,
                                      seed=4).sampled_pencil_margin
        thetas = adj.sample_omega(np.random.default_rng(4), 500)
        scale = max(1.0, 4 * certifier._norm_bound(L)(thetas).max())
        assert abs(margin() - exhaustively(monkeypatch, margin)) \
            <= 1e-12 * scale


@pytest.mark.parametrize("name", ["fifty_agent", "six_agent", "signed",
                                  "general"] + SMALL_CASES)
def test_screen_never_clears_a_point_at_the_running_minimum(name):
    # t = offset + m + slack with offset + m the exact value itself: the
    # screen's matrix is indefinite by the slack at every point, so no
    # point clears; a minimum 1e-6 lower clears nearly all of them
    if name in BUILTIN:
        adj, P_bar = ScenarioSpec.load(builtin_path(name)).adjacency, None
    else:
        adj, P_bar = screened_case(name)
    # the full pencil of P = I / s + M (P_bar - I / s) M', as the replay
    # sweeps it: dense for a general P_bar
    thetas = adj.sample_omega(np.random.default_rng(2), 300)
    N, s = adj.N, adj.N - 1
    P = np.eye(N) / s
    if P_bar is not None:
        M = reduced_basis(N)
        P = P + M @ (P_bar - np.eye(s) / s) @ M.T
    A = MatrixPolynomial(N, N, adj.r,
                         certifier.pencil_terms(P, laplacian(adj)))
    band = band_form(A)
    exact = certifier.least_on_complement(A, band)(thetas)
    passes = certifier._screen(A, band)
    assert not passes(thetas, exact, 0.0).any()
    below = exact - 1e-6 * np.maximum(1.0, np.abs(exact))
    assert passes(thetas, below, 0.0).mean() > 0.9


@pytest.mark.parametrize("name", ["constant", "isolated"])
def test_tied_points_cost_one_exact_call_and_one_screen_each(monkeypatch,
                                                             name):
    # every point ties at the minimum: no screen clears, so the first chunk
    # ends the screening and each point is evaluated exactly once
    adj, _ = screened_case(name)
    calls = oracles.count_calls(monkeypatch, (certifier.lapack, "dsbevx"),
                                (certifier.lapack, "dpbtrf"))
    sweep = sample_lambda2(adj, n_samples=300, seed=1)
    assert calls["dsbevx"] <= 300 and calls["dpbtrf"] <= 300
    assert sweep.min_value == sweep.values.min()


def test_tied_points_on_the_batched_route_cost_two_sweeps_and_one_screen(
        monkeypatch):
    # a complete graph of 8 agents whose weights do not depend on the
    # parameter: the 16 points that set the running minimum take one
    # eigvalsh, the first chunk's screen clears none of the 284 others,
    # and they take the second
    N = 8
    w = {(i, j): {(0,): 1.0 + (i + 2 * j) / N}
         for i in range(N) for j in range(i + 1, N)}
    adj = oracles.adjacency(N, w, 1, [unit_disk(1)], [(-1.0, 1.0)])
    assert band_form(laplacian(adj)) is None
    calls = oracles.count_calls(monkeypatch, (np.linalg, "eigvalsh"),
                                (certifier, "_band_cholesky"))
    sweep = sample_lambda2(adj, n_samples=300, seed=1)
    assert calls["eigvalsh"] <= 2 and calls["_band_cholesky"] == 1
    assert sweep.min_value == sweep.values.min()


def shifted_bands(rng, n, kd, count):
    """count symmetric n-square matrices of half-bandwidth kd, each less a
    multiple of I that leaves it definite or indefinite with every
    eigenvalue at least 1e-8 of its norm from 0, in lower-band storage, and
    whether each is definite."""
    near = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= kd
    bands, definite = [], []
    while len(bands) < count:
        X = rng.normal(size=(n, n))
        B = (X + X.T) * near
        w = np.linalg.eigvalsh(B)
        k = int(rng.integers(0, n))
        # below the spectrum, or midway between two eigenvalues
        shift = w[0] - rng.uniform(0.01, 1.0) if k == 0 \
            else (w[k - 1] + w[k]) / 2
        w = w - shift
        if np.abs(w).min() < 1e-8 * np.abs(w).max():
            continue
        bands.append(certifier._lower_band(B - shift * np.eye(n), kd))
        definite.append(k == 0)
    return np.array(bands), np.array(definite)


@pytest.mark.parametrize("dense", [False, True])
def test_batched_cholesky_passes_where_dpbtrf_factorises(dense):
    rng = np.random.default_rng(19)
    for n in range(2, certifier.SUBSET_ORDER):
        kd = n - 1 if dense else int(rng.integers(0, n - 1))
        bands, definite = shifted_bands(rng, n, kd, 40)
        factorised = [certifier.lapack.dpbtrf(ab, lower=1)[1] == 0
                      for ab in bands]
        np.testing.assert_array_equal(certifier._band_cholesky(bands.copy()),
                                      factorised)
        np.testing.assert_array_equal(factorised, definite)
        assert 0 < definite.sum() < len(definite)


def test_batched_cholesky_fails_an_overflow_without_a_warning():
    # the first column's update overflows to inf and the second pivot to
    # -inf; an inf pivot fails too.  The suite turns a warning into an error
    ab = np.array([[[1e-300, 1.0, 1.0], [1e300, 1e300, 0.0]],
                   [[np.inf, 1.0, 1.0], [0.0, 0.0, 0.0]],
                   [[np.nan, 1.0, 1.0], [0.0, 0.0, 0.0]],
                   [[2.0, 2.0, 2.0], [1.0, 1.0, 0.0]]])
    np.testing.assert_array_equal(certifier._band_cholesky(ab),
                                  [False, False, False, True])


@pytest.mark.parametrize("name", ["six_agent", "fifty_agent"])
def test_screen_fails_a_t_that_is_not_finite_without_a_warning(name):
    # six_agent screens with the batched Cholesky, fifty_agent with dpbtrf
    adj = ScenarioSpec.load(builtin_path(name)).adjacency
    L = laplacian(adj)
    passes = certifier._screen(L, band_form(L))
    thetas = adj.sample_omega(np.random.default_rng(0), 5)
    for offset, least in [(np.inf, 0.0), (-np.inf, 0.0), (np.nan, 0.0),
                          (0.0, np.inf), (0.0, -np.inf)]:
        assert not passes(thetas, np.full(5, offset), least).any()
    assert passes(thetas, np.full(5, -1.0), 0.0).all()


def test_a_sweep_takes_the_coefficient_norms_once(monkeypatch):
    # six_agent's 500-point replay: the screen and least_on_complement
    # each take the Frobenius norm of the full pencil's three coefficients
    # once, not on every batch (18 calls at seed 0 before)
    adj = ScenarioSpec.load(builtin_path("six_agent")).adjacency
    cert = certify(adj).certificate
    calls = oracles.count_calls(monkeypatch, (np.linalg, "norm"))
    assert verify_certificate(cert, adj, n_samples=500, seed=0).ok
    assert calls == {"norm": 2 * 3}


def test_the_batched_route_reads_both_least_eigenvalues_at_once(
        monkeypatch):
    # the exhaustive replay of a small signed ring, no band and order
    # below SUBSET_ORDER: one eigvalsh of each of the 500 pencils gives
    # mu_1, also where the second eigenvalue is the computed 0 of the ones
    # vector (807 pencils at seed 0 before, the low points twice)
    adj, _ = screened_case("small_signed")
    cert = zero_certificate(adj, 0.0)
    pencils = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        if a.shape[-1] == adj.N:
            pencils.append(len(a.reshape(-1, adj.N, adj.N)))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    margin = exhaustively(monkeypatch, lambda: verify_certificate(
        cert, adj, n_samples=500, seed=0).sampled_pencil_margin)
    assert sum(pencils) == 500
    reduced = reduced_pencils(adj.N, signed_ring(adj.N),
                              adj.sample_omega(np.random.default_rng(0), 500))
    assert margin == pytest.approx(eigvalsh(reduced)[:, 0].min(), abs=1e-12)


@pytest.mark.parametrize("scale", [1e300, 1e307])
@pytest.mark.parametrize("name", ["six_agent", "fifty_agent"])
def test_replay_of_weights_whose_norm_overflows_fails_without_a_warning(
        name, scale):
    # the Frobenius norms of the full pencil's coefficients overflow in
    # the norm bound that least_on_complement tests its eigenvalues
    # against, which warned "overflow encountered in dot" (an error under
    # the suite's filterwarnings).  A zero certificate fails the Gram
    # identity of any weights
    adj = ScenarioSpec.load(builtin_path(name)).adjacency
    E = adj.entries
    adj = dataclasses.replace(adj, entries=MatrixPolynomial(
        E.rows, E.cols, E.r, {e: scale * C for e, C in E.coeffs.items()}))
    rep = verify_certificate(zero_certificate(adj, 1e-4), adj,
                             n_samples=300, seed=0)
    assert not rep.ok
    assert rep.failures[0].startswith("Gram identity violated")


def test_a_parameterless_region_is_evaluated_once(monkeypatch):
    # r = 0: the region is one point, whatever the number of samples
    N = 50
    w = {(i, i + 1): {(): 1.0 + i / N} for i in range(N - 1)}
    w[(0, N - 1)] = {(): 1.0}
    adj = oracles.adjacency(N, w)
    cert = zero_certificate(adj, 1e-4)
    calls = oracles.count_calls(monkeypatch, (certifier.lapack, "dsbevx"),
                                (certifier.lapack, "dpbtrf"))
    sweep = sample_lambda2(adj, n_samples=10000, seed=0)
    assert calls == {"dsbevx": 1, "dpbtrf": 0}
    np.testing.assert_array_equal(sweep.values,
                                  np.full(10000, sweep.min_value))
    assert calls == {"dsbevx": 2, "dpbtrf": 0}
    margin = verify_certificate(cert, adj, n_samples=2000,
                                seed=0).sampled_pencil_margin
    # k = 2, and no k = 1: the point's mu_1 is clearly positive
    assert calls == {"dsbevx": 3, "dpbtrf": 0}
    W = adj.entries.coeffs[()]
    lambda_2 = np.linalg.eigvalsh(np.diag(W.sum(axis=1)) - W)[1]
    assert margin == pytest.approx(2 * lambda_2 / (N - 1) - 1e-4,
                                   rel=0, abs=1e-12)


def test_the_certify_lambda2_check_of_fifty_agent_stays_behind_the_screen(
        monkeypatch):
    # certify's default sweep: 10 000 points, seed 0
    adj = ScenarioSpec.load(builtin_path("fifty_agent")).adjacency
    calls = oracles.count_calls(monkeypatch, (certifier.lapack, "dsbevx"),
                                (certifier.lapack, "dpbtrf"))
    sample_lambda2(adj, n_samples=10000, seed=0)
    assert calls["dsbevx"] <= 100 and calls["dpbtrf"] <= 11000


@pytest.mark.parametrize("name", ["six_agent", "fifty_agent"])
def test_sampled_pencil_margin_is_the_shifted_lambda2(name):
    # with P = I / s the sampled pencil at theta is 2 Lhat(theta) / s -
    # c* |phi_H(theta)|^2 I, whose least eigenvalue is 2 lambda_2 / s less
    # the shift; both sweeps draw the same points for a seed
    adj = ScenarioSpec.load(builtin_path(name)).adjacency
    cert = certify(adj).certificate
    s = adj.N - 1
    np.testing.assert_array_equal(cert.P_bar, np.eye(s) / s)
    for seed in range(2):
        sweep = sample_lambda2(adj, n_samples=200, seed=seed)
        phi2 = np.sum(power_vector(adj.r, cert.plan.d_H).eval_batch(
            sweep.thetas) ** 2, axis=1)
        expected = float(np.min(2 * sweep.values / s - cert.c_star * phi2))
        margin = verify_certificate(cert, adj, n_samples=200,
                                    seed=seed).sampled_pencil_margin
        assert margin == pytest.approx(expected, rel=1e-10)


def test_sampled_margin_reads_the_least_eigenvalue_of_the_reduced_laplacian():
    # path 0-1-2 with w01 = 1 and w12 = theta on [-1, 1].  The sampled
    # pencil at theta is 2 Lhat(theta) / s - c* (1 + theta^2) I, so its
    # margin reads mu_1, the least eigenvalue of Lhat = M' L M.  Where
    # w12 < 0, L is indefinite and lambda_2(L) is median(mu_1, 0, mu_2) = 0,
    # not mu_1: the lambda_2-based expression reads 0.866 here
    adj = oracles.adjacency(3, {(0, 1): {(0,): 1.0}, (1, 2): {(1,): 1.0}}, 1,
                            [unit_disk(1)], [(-1.0, 1.0)])
    res = certify(adj)
    cert = res.certificate
    assert res.solution.status is sdp.SdpStatus.OPTIMAL
    assert cert.c_star == pytest.approx(-math.sqrt(3) / 2, abs=1e-6)
    assert cert.plan.d_H == 1
    theta = adj.sample_omega(np.random.default_rng(0), 200)[:, 0]
    W = np.zeros((200, 3, 3))
    W[:, 0, 1] = W[:, 1, 0] = 1.0
    W[:, 1, 2] = W[:, 2, 1] = theta
    L = np.eye(3) * W.sum(-1)[..., None] - W
    M = np.linalg.qr(np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0],
                               [1.0, 0.0, -1.0]]))[0][:, 1:]
    mu_1 = np.linalg.eigvalsh(M.T @ L @ M)[:, 0]
    shift = cert.c_star * (1 + theta ** 2)
    expected = float(np.min(mu_1 - shift))  # 2 mu_1 / s with s = 2
    margin = verify_certificate(cert, adj, n_samples=200,
                                seed=0).sampled_pencil_margin
    assert margin == pytest.approx(expected, rel=0, abs=1e-12)
    assert margin == pytest.approx(7.58e-4, rel=1e-3)
    lambda_2 = np.linalg.eigvalsh(L)[:, 1]
    assert float(np.min(lambda_2 - shift)) > 0.866


@pytest.mark.parametrize("case", ["six_agent", "random_disk"])
def test_replay_equals_residuals_of_the_assembled_problem(case):
    # the replay evaluates the main constraint at the stored matrices, in
    # the Helmert frame; the same point of the assembled problem, in the
    # Haar frame with the Gram offsets on the pattern, must give the same
    # eigenvalues across the congruence of T = M_haar' M_helmert, also away
    # from the optimum.  The problem fixes P = I / s, so the stored P_bar
    # stays as written there; the trace error is checked on a moved P_bar
    # of its own
    adj = ScenarioSpec.load(builtin_path("six_agent")).adjacency \
        if case == "six_agent" else _random_disk_adjacency(31)
    cert = certify(adj).certificate
    rng = np.random.default_rng(5)

    def moved(X):
        N = rng.normal(scale=0.1, size=X.shape)
        return X + (N + N.T) / 2.0

    asm = assemble(adj)
    assert asm.plan == cert.plan
    T = oracles.haar_basis(adj.N).T @ reduced_basis(adj.N)
    R_bars = [moved(R) for R in cert.R_bars]
    y = np.zeros(asm.problem.n_vars)
    y[asm.c_index] = 0.9 * cert.c_star
    for var, R in zip(asm.r_vars, R_bars):
        y[var.indices] = sdp.svec(oracles.frame_map(R, T.T))
    kept = oracles.on_pattern(
        oracles.null_basis(adj.r, cert.plan.d_H, asm.s),
        oracles.haar_pattern(adj), len(asm.phi_H))
    y[asm.delta_indices] = rng.normal(scale=0.1, size=len(kept))
    offsets = oracles.frame_map(
        sum(d * B for d, B in zip(y[asm.delta_indices], kept)), T)
    delta = np.array([np.sum(B * offsets) for B in oracles.null_basis(
        adj.r, cert.plan.d_H, asm.s)])
    fake = Certificate(cert.n_agents, cert.r, cert.plan, 0.9 * cert.c_star,
                       cert.P_bar, R_bars, delta)
    rep = verify_certificate(fake, adj, n_samples=0)
    ref = sdp.residuals(asm.problem, y)
    # the replay's first block is P_bar, which has no block in the problem
    np.testing.assert_allclose(rep.min_eigenvalues[1:],
                               ref["min_eigenvalues"], rtol=0, atol=1e-12)
    assert rep.min_eigenvalues[-1] == rep.min_eigenvalues[1 + asm.main_lmi]

    P = moved(cert.P_bar)
    fake.P_bar = P
    rep = verify_certificate(fake, adj, n_samples=0)
    assert rep.trace_error == pytest.approx(
        abs(math.fsum(np.diag(P)) - 1.0), abs=1e-12)


def test_verify_rejects_malformed_stored_matrices():
    adj = _random_disk_adjacency(31)
    cert = certify(adj).certificate
    asymmetric = cert.P_bar.copy()
    asymmetric[0, -1] += 1e-3
    R = cert.R_bars[0]
    for P, R_bars in [(asymmetric, cert.R_bars), (np.eye(3), cert.R_bars),
                      (cert.P_bar, [R[:-1, :-1]]), (cert.P_bar, [R, R])]:
        fake = Certificate(cert.n_agents, cert.r, cert.plan, cert.c_star,
                           P, R_bars, cert.delta)
        with pytest.raises(CertifierError):
            verify_certificate(fake, adj, n_samples=0)
