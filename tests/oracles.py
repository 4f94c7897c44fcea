"""Slow reference paths, kept as oracles for the fast code.

Most functions here loop over agents or pairs in Python and measure every
distance on their own, the way the package did before its geometry was
read off one pair-distance matrix and its energy and control were evaluated
on index arrays (barrier.PairArrays).  schur_matrix is the SDP solver's
generic Schur complement builder, one path for every constraint column,
and max_step its step length through a Cholesky factor of the iterate.
assembly_columns builds the certification problem's constraint columns one
variable at a time through dense matrices, and null_basis is the dense
Gram-Schmidt construction of the Gram null space, the way the package did
before it assembled svec columns directly.  The tests compare each with the
package.  Pair sets are the package's N x N boolean masks, True only above
the diagonal, the formation mask of a scenario among them; the oracles
read and write them one pair at a time, at the index upper(i, j), and
measure each pair's distance with np.linalg.norm.  The barriers psi_e and
psi_c and their gradients are scalar closed forms written with math from
their formulas; the numeric Laplacian and the Gram expansion are written
from theirs as well, and none of these shares code with the package.
count_calls counts the library calls a route makes, for the route tests.
scenario_dict and save_scenario write a ScenarioSpec back as a scenario
file, which the package only reads.
"""

import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.optimize import minimize_scalar

from robustform import sdp
from robustform.certifier import gram_image
from robustform.netgraph import TopologyState, UncertainAdjacency
from robustform.polyalg import MatrixPolynomial, mono_mul, mono_sort_key
from robustform.scenario import FORMAT
from robustform.smr import _positions, gram_null_basis, power_vector


def psi_e(q, r_hat_s, mu1):
    """Edge-keeping barrier q^2 / (r_hat_s - q + r_hat_s^2/mu1) at the
    formation error q = ||y_ij||."""
    return q * q / (r_hat_s - q + r_hat_s * r_hat_s / mu1)


def grad_psi_e(y, r_hat_s, mu1):
    """d psi_e / dy = psi_e'(q) y / q, psi_e'(q) = (2 q D + q^2) / D^2 with
    D the psi_e denominator."""
    q = math.sqrt(sum(v * v for v in y))
    D = r_hat_s - q + r_hat_s * r_hat_s / mu1
    return np.array([(2.0 * D + q) / (D * D) * v for v in y])


def psi_c(p, tau_norm, d_s, mu2):
    """Collision barrier (p - tau_norm)^2 / (p - d_s + (d_s - tau_norm)^2
    / mu2) at the separation p = ||x_ij||."""
    return (p - tau_norm) ** 2 / (p - d_s + (d_s - tau_norm) ** 2 / mu2)


def grad_psi_c(x, tau_norm, d_s, mu2):
    """d psi_c / dx = psi_c'(p) x / p, psi_c'(p) = (2 (p - tau_norm) D
    - (p - tau_norm)^2) / D^2 with D the psi_c denominator."""
    p = math.sqrt(sum(v * v for v in x))
    D = p - d_s + (d_s - tau_norm) ** 2 / mu2
    dpsi = (2.0 * (p - tau_norm) * D - (p - tau_norm) ** 2) / (D * D)
    return np.array([dpsi * v / p for v in x])


def laplacian(G):
    """Degree matrix minus the numeric adjacency G."""
    G = np.asarray(G, dtype=float)
    return np.diag(G.sum(1)) - G


def gram_expand_matrix(A, pv, s):
    """The matrix polynomial (phi (x) I_s)' A (phi (x) I_s), phi = pv: the
    s-by-s block (a, b) of A is added to the coefficient of the monomial
    phi_a phi_b, one np.add.at over all blocks."""
    l = len(pv)
    monos = sorted({mono_mul(a, b) for a in pv.monos for b in pv.monos})
    at = {mu: k for k, mu in enumerate(monos)}
    K = np.array([[at[mono_mul(a, b)] for b in pv.monos] for a in pv.monos])
    blocks = np.asarray(A, dtype=float).reshape(l, s, l, s).swapaxes(1, 2)
    coeffs = np.zeros((len(monos), s, s))
    np.add.at(coeffs, K, blocks)
    return MatrixPolynomial(s, s, pv.r, dict(zip(monos, coeffs)))


def matpoly(rows, cols, r, entries):
    """The rows x cols MatrixPolynomial whose entry (i, j) has the term
    dict entries[i, j], its monomials in order of first appearance, as a
    scenario file's reader inserts them."""
    coeffs = {}
    for (i, j), terms in entries.items():
        for e, c in terms.items():
            coeffs.setdefault(e, np.zeros((rows, cols)))[i, j] = c
    return MatrixPolynomial(rows, cols, r, coeffs)


def weight_matrix(N, r, w):
    """The symmetric N x N weight matrix with the term dict w[i, j] at
    (i, j) and (j, i)."""
    return matpoly(N, N, r, {**w, **{(j, i): t for (i, j), t in w.items()}})


def region_column(r, *polys):
    """The region column of the term dicts polys, polys[k] in row k."""
    return matpoly(len(polys), 1, r, {(k, 0): p for k, p in enumerate(polys)})


def adjacency(N, w, r=0, region=(), box=()):
    """The UncertainAdjacency of the weight term dicts w[i, j] (see
    weight_matrix) on the region of the term dicts region, in box."""
    return UncertainAdjacency(N, weight_matrix(N, r, w),
                              region_column(r, *region), list(box))


def uncertainty_records(adj):
    """The uncertainty section of a scenario file for adj: its box and the
    term records of its region and of its weights that are not zero, each
    in graded-descending monomial order (polyalg.mono_sort_key)."""
    def records(terms):
        return [{"exponents": list(e), "coeff": terms[e]}
                for e in sorted(terms, key=mono_sort_key)]

    return {"n_parameters": adj.r, "box": [list(b) for b in adj.box],
            "region": [{"terms": records(adj.omega.terms(k, 0))}
                       for k in range(adj.omega.rows)],
            "weights": [{"i": i, "j": j, "terms": records(terms)}
                        for i in range(adj.N) for j in range(i + 1, adj.N)
                        if (terms := adj.entries.terms(i, j))]}


def scenario_dict(spec):
    """The scenario file document of a ScenarioSpec, in the form the
    shipped files are written in."""
    return {"format": FORMAT, "name": spec.name,
            "geometry": dataclasses.asdict(spec.geometry),
            "tau": spec.tau.tolist(), "positions": spec.positions.tolist(),
            "velocities": spec.velocities.tolist(),
            "formation_edges": np.argwhere(spec.formation).tolist(),
            "uncertainty": uncertainty_records(spec.adjacency),
            "barrier": dataclasses.asdict(spec.barrier) if spec.barrier
            else None,
            "assumption_overrides": dict(spec.assumption_overrides),
            "jitter_pos": spec.jitter_pos, "jitter_vel": spec.jitter_vel,
            "T_end": spec.T_end, "dt": spec.dt,
            "record_every": spec.record_every, "conv_tol": spec.conv_tol}


def save_scenario(spec, path):
    """Write the scenario file of a ScenarioSpec to path."""
    Path(path).write_text(json.dumps(scenario_dict(spec), indent=2) + "\n")


def seeded_graphs(seed=2017, count=240):
    """The seeded sweep of uncertain graphs, a list of adjacencies.

    Graph k has N in 3..12 agents and r = 1 + k % 2 parameters on the box
    [-1, 1]^r.  Its region is the inequalities 1 - theta_q^2 >= 0 when
    (k // 2) % 2 == 0, else the unit disk 1 - |theta|^2 >= 0.  Its edges
    form a random spanning tree, the parent of agent j drawn from
    0..j-1, each with the affine weight c0 + c'theta, c0 ~ U(0.5, 1.5)
    and every c_q ~ U(-0.4, 0.4).  Agent N - 1 is left isolated when
    k % 5 == 0."""
    rng = np.random.default_rng(seed)
    graphs = []
    for k in range(count):
        N = int(rng.integers(3, 13))
        r = 1 + k % 2
        one = (0,) * r
        linear = [tuple(int(p == q) for p in range(r)) for q in range(r)]
        squares = [tuple(2 * e for e in mono) for mono in linear]
        if (k // 2) % 2 == 0:
            region = [{one: 1.0, sq: -1.0} for sq in squares]
        else:
            region = [{one: 1.0, **dict.fromkeys(squares, -1.0)}]
        w = {}
        for j in range(1, N - 1 if k % 5 == 0 else N):
            i = int(rng.integers(0, j))
            c0 = float(rng.uniform(0.5, 1.5))
            c = rng.uniform(-0.4, 0.4, r)
            w[i, j] = {one: c0, **dict(zip(linear, map(float, c)))}
        graphs.append(adjacency(N, w, r, region, [(-1.0, 1.0)] * r))
    return graphs


def pair_mask(N, pairs):
    """N x N boolean mask, True at each listed (i, j), i < j."""
    mask = np.zeros((N, N), dtype=bool)
    for (i, j) in pairs:
        mask[i, j] = True
    return mask


def pairs(mask):
    """The (i, j) pairs of a mask, row by row."""
    return [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))]


def update_edges(positions, topo, geom):
    """Hysteresis update: add at <= r_s - eps, drop non-formation > r_s."""
    positions = np.asarray(positions, dtype=float)
    edges = topo.edges.copy()
    for i, j in zip(*np.triu_indices(len(topo.edges), k=1)):
        dist = np.linalg.norm(positions[i] - positions[j])
        if edges[i, j]:
            if dist > geom.r_s and not topo.formation[i, j]:
                edges[i, j] = False
        elif dist <= geom.r_s - geom.eps:
            edges[i, j] = True
    if np.array_equal(edges, topo.edges):
        return topo
    return TopologyState(edges, topo.formation)


def upper(i, j):
    """The pair (i, j) as its mask index, smaller agent first."""
    return (min(i, j), max(i, j))


def initial_topology(positions, formation, geom):
    """The formation mask's edges plus every pair inside the
    hysteresis-add radius."""
    positions = np.asarray(positions, dtype=float)
    N = positions.shape[0]
    fe = np.array(formation, dtype=bool)
    edges = fe.copy()
    for i, j in zip(*np.triu_indices(N, k=1)):
        if np.linalg.norm(positions[i] - positions[j]) \
                <= geom.r_s - geom.eps:
            edges[i, j] = True
    return TopologyState(edges, fe)


def zone_pairs_at(positions, topo, geom):
    """Mask of the connected pairs with distance < r_z."""
    positions = np.asarray(positions, dtype=float)
    zone = np.zeros_like(topo.edges)
    for (i, j) in pairs(topo.edges):
        zone[i, j] = np.linalg.norm(positions[i] - positions[j]) < geom.r_z
    return zone


def neighbor_sets(i, positions, topo, geom):
    """(sensing neighbors, formation neighbors among them, collision-zone
    neighbors among them) for agent i; zone membership is dist < r_z."""
    positions = np.asarray(positions, dtype=float)
    ns, nsf, nsz = set(), set(), set()
    for j in range(len(topo.edges)):
        if j == i or not topo.edges[upper(i, j)]:
            continue
        ns.add(j)
        if topo.formation[upper(i, j)]:
            nsf.add(j)
        if np.linalg.norm(positions[i] - positions[j]) < geom.r_z:
            nsz.add(j)
    return ns, nsf, nsz


def energy_W(positions, velocities, tau, topo, geom, G, params,
             zone_pairs=None):
    """W = sum of psi_e over formation pairs + psi_c over zone pairs
    + 1/2 sum of G_ij ||y_ij||^2 over edges + 1/2 sum of ||rho_i||^2."""
    positions = np.asarray(positions, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    tau = np.asarray(tau, dtype=float)
    G = np.asarray(G, dtype=float)
    y = positions - tau
    if zone_pairs is None:
        zone_pairs = zone_pairs_at(positions, topo, geom)
    W = 0.0
    for (i, j) in pairs(topo.formation):
        tau_norm = float(np.linalg.norm(tau[i] - tau[j]))
        W += psi_e(float(np.linalg.norm(y[i] - y[j])),
                   geom.r_s - tau_norm, params.mu1)
    for (i, j) in pairs(zone_pairs):
        W += psi_c(float(np.linalg.norm(positions[i] - positions[j])),
                   float(np.linalg.norm(tau[i] - tau[j])),
                   geom.d_s, params.mu2)
    for (i, j) in pairs(topo.edges):
        d = y[i] - y[j]
        W += 0.5 * G[i, j] * float(d @ d)
    W += 0.5 * float(np.sum(velocities * velocities))
    return W


def control_input(i, positions, velocities, tau, topo, geom, G, params,
                  zone_pairs=None):
    """Control of agent i from its own neighborhoods only."""
    positions = np.asarray(positions, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    tau = np.asarray(tau, dtype=float)
    y = positions - tau
    ns, nsf, nsz = neighbor_sets(i, positions, topo, geom)
    if zone_pairs is not None:
        nsz = {j for j in ns if zone_pairs[upper(i, j)]}
    u = np.zeros(positions.shape[1])
    for j in nsf:
        tn = float(np.linalg.norm(tau[i] - tau[j]))
        u -= grad_psi_e(y[i] - y[j], geom.r_s - tn, params.mu1)
    for j in nsz:
        u -= grad_psi_c(positions[i] - positions[j],
                        float(np.linalg.norm(tau[i] - tau[j])), geom.d_s,
                        params.mu2)
    for j in ns:
        u -= G[i, j] * (y[i] - y[j])
        u -= G[i, j] * (velocities[i] - velocities[j])
    return u


def schur_matrix(A_list, scalings, sizes, n_vars, chunk=256):
    """Generic Schur complement B_ij = sum_k <F_{k,i}, W_k F_{k,j} W_k>.

    Every nonzero column is unpacked to a dense symmetric matrix, taken
    through W M W, and multiplied by the whole of A' again, `chunk`
    columns at a time whatever the solver's batches."""
    B = np.zeros((n_vars, n_vars))
    for A, sc, n in zip(A_list, scalings, sizes):
        cols = np.nonzero(np.diff(A.indptr))[0]
        iu, ju = np.triu_indices(n)
        w = np.where(iu == ju, 1.0, np.sqrt(2.0))
        At = A.T.tocsr()
        for start in range(0, len(cols), chunk):
            cc = cols[start:start + chunk]
            dense = A[:, cc].toarray().T / w[None, :]
            M = np.zeros((len(cc), n, n))
            M[:, iu, ju] = dense
            M[:, ju, iu] = dense
            Y = np.matmul(sc.Winv, np.matmul(M, sc.Winv))
            K = (Y[:, iu, ju] * w[None, :]).T
            B[:, cc] += At @ K
    return 0.5 * (B + B.T)


def count_calls(monkeypatch, *targets):
    """Calls of each (owner, attr) in targets, by attr: a dict that each
    call through the wrapper monkeypatch puts in place counts in."""
    calls = dict.fromkeys((attr for _, attr in targets), 0)

    def counted(attr, inner):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return inner(*args, **kwargs)
        return wrapper

    for owner, attr in targets:
        monkeypatch.setattr(owner, attr, counted(attr, getattr(owner, attr)))
    return calls


def max_step(S, dS):
    """Largest t with S + t dS still PSD, inf when there is no bound: -1
    over the least eigenvalue of L^-1 dS L^-T, L the Cholesky factor of S.
    When roundoff has pushed S just off the cone, S's spectrum is clamped
    at a tiny positive floor instead."""
    try:
        Ls = np.linalg.cholesky(S)
        M = sla.solve_triangular(Ls, dS, lower=True)
        M = sla.solve_triangular(Ls, M.T, lower=True)
    except np.linalg.LinAlgError:
        lam, Q = np.linalg.eigh(0.5 * (S + S.T))
        root = np.sqrt(np.maximum(lam, 1e-15 * max(float(lam[-1]), 1e-300)))
        B = Q / root[None, :]
        M = B.T @ dS @ B
    lo = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
    return np.inf if lo >= -1e-14 else -1.0 / lo


def lmi_columns(coeffs, n):
    """Dense {variable: F} coefficients of an n-square LMI as the svec
    column matrix SdpProblem.add_lmi takes: column i is svec(F_i), and
    zero for a variable below the largest given that has no F_i."""
    A = np.zeros((sdp.svec_dim(n), max(coeffs, default=-1) + 1))
    for i, F in coeffs.items():
        A[:, i] = sdp.svec(np.asarray(F, dtype=float))
    return sp.csc_array(A)


def null_matrices(r, d, s):
    """The elements of smr.gram_null_basis(r, d, s) as dense matrices."""
    size = len(power_vector(r, d)) * s
    return list(sdp.smat(gram_null_basis(r, d, s).T.toarray(), size))


def svec_sparse(F):
    """Nonzero svec positions and values of a dense symmetric matrix, read
    off its upper triangle."""
    F = np.asarray(F, dtype=float)
    n = F.shape[0]
    i, j = np.nonzero(np.triu(F))
    pos = i * n - (i * (i - 1)) // 2 + (j - i)
    w = np.where(i == j, 1.0, math.sqrt(2.0))
    return pos.astype(np.int64), F[i, j] * w


def basis_matrix(size, k):
    """d(matrix)/d(svec scalar k) of a size-square matrix variable."""
    e = np.zeros(sdp.svec_dim(size))
    e[k] = 1.0
    return sdp.smat(e, size)


def null_basis(r, d, s):
    """Dense orthonormal basis of the symmetric matrices that expand to
    zero, in the order and with the signs of smr.gram_null_basis: per
    monomial and symmetric unit, a Gram-Schmidt pass over dense matrices,
    then the antisymmetric off-diagonal block directions.  A generator, so
    that only one dense element is alive at a time."""
    pv = power_vector(r, d)
    l = len(pv)
    size = l * s
    pos = _positions(pv)
    sym_units = []
    for u in range(s):
        U = np.zeros((s, s))
        U[u, u] = 1.0
        sym_units.append(U)
    for u in range(s):
        for v in range(u + 1, s):
            U = np.zeros((s, s))
            U[u, v] = U[v, u] = 1.0
            sym_units.append(U)

    def embed(places, kappa, U):
        B = np.zeros((size, size))
        for k, (a, b) in enumerate(places):
            w = kappa[k]
            if a == b:
                B[a * s:(a + 1) * s, a * s:(a + 1) * s] += w * U
            else:
                B[a * s:(a + 1) * s, b * s:(b + 1) * s] += w * U / 2
                B[b * s:(b + 1) * s, a * s:(a + 1) * s] += w * U / 2
        return B

    for mu in sorted(pos, key=mono_sort_key):
        places = pos[mu]
        t = len(places)
        if t < 2:
            continue
        for U in sym_units:
            group = []
            for j in range(1, t):
                kappa = np.zeros(t)
                kappa[0], kappa[j] = 1.0, -1.0
                B = embed(places, kappa, U)
                for G in group:
                    B = B - np.sum(B * G) * G
                B = B / np.linalg.norm(B)
                group.append(B)
            yield from group
    for a in range(l):
        for b in range(a + 1, l):
            for u in range(s):
                for v in range(u + 1, s):
                    B = np.zeros((size, size))
                    B[a * s + u, b * s + v] = 0.5
                    B[b * s + v, a * s + u] = 0.5
                    B[a * s + v, b * s + u] = -0.5
                    B[b * s + u, a * s + v] = -0.5
                    yield B


def assembly_columns(asm, region):
    """The compiled columns of every block of asm = assemble(adj), region
    = adj.omega, built one variable at a time: each multiplier column is the
    dense Gram image of a dense basis matrix, each Gram offset a dense
    null_basis element, and each column goes through svec_sparse."""
    prob = asm.problem
    s, phi_H = asm.s, asm.phi_H
    pos_H = _positions(phi_H)

    def main():
        yield asm.c_index, -np.eye(len(phi_H) * s)
        for i, (var, pv) in enumerate(zip(asm.r_vars, asm.phi_R)):
            for k in range(len(var.indices)):
                yield int(var.indices[k]), -gram_image(
                    basis_matrix(var.size, k), pv, region.terms(i, 0),
                    phi_H, s, pos_H)
        yield from zip(asm.delta_indices,
                       null_basis(asm.r, asm.plan.d_H, s))

    def identity(var):
        for k in range(len(var.indices)):
            yield int(var.indices[k]), basis_matrix(var.size, k)

    blocks = [identity(var) for var in asm.r_vars]
    blocks.insert(asm.main_lmi, main())
    out = []
    for blk, lmi in zip(blocks, prob.lmis):
        rows, cols, data = [], [], []
        for i, F in blk:
            idx, vals = svec_sparse(F)
            rows.append(idx)
            cols.append(np.full(len(idx), i, dtype=np.int64))
            data.append(vals)
        out.append(sp.csc_matrix(
            (np.concatenate(data), (np.concatenate(rows),
                                    np.concatenate(cols))),
            shape=(sdp.svec_dim(lmi.size), prob.n_vars)))
    return out


def worst_lambda2(n_agents, uncertainty):
    """The exact minimum of lambda2(theta), the second-smallest eigenvalue
    of the Laplacian of W(theta), over the region of a scenario file's
    uncertainty section (its term records), or None where it is not known.

    Every weight must be affine in theta: then lambda2, a minimum of
    x' L(theta) x over unit x orthogonal to 1, is concave, and its minimum
    over a compact convex region lies at an extreme point.  The region must
    be either the box itself (no region polynomial, or one ball that holds
    the box) with at most 10 parameters, whose extreme points are its
    vertices; or one ball a + b'theta - k |theta|^2 >= 0, k > 0, inside the
    box, whose extreme points are its sphere: two points for one parameter,
    a circle for two, searched on a 4096-angle grid and refined by a
    bounded 1-D search around the three lowest grid minima."""
    r = uncertainty["n_parameters"]
    box = np.array(uncertainty["box"], dtype=float).reshape(r, 2)
    A = np.zeros((r + 1, n_agents, n_agents))  # W = A[0] + sum theta_k A[k]
    for rec in uncertainty["weights"]:
        for term in rec["terms"]:
            e = term["exponents"]
            if sum(e) > 1:
                return None
            k = 1 + e.index(1) if sum(e) else 0
            A[k, rec["i"], rec["j"]] += term["coeff"]
            A[k, rec["j"], rec["i"]] += term["coeff"]

    def lambda2(thetas):
        W = A[0] + np.tensordot(thetas, A[1:], axes=1)
        L = np.eye(n_agents) * W.sum(-1)[..., None] - W
        return np.linalg.eigvalsh(L)[:, 1]

    def on_vertices():
        if r > 10:
            return None
        vertices = np.array(list(itertools.product(*box))).reshape(2 ** r, r)
        return float(lambda2(vertices).min())

    region = uncertainty["region"]
    if not region:
        return on_vertices()
    if len(region) > 1 or r == 0:
        return None
    # a + b'theta - k |theta|^2 = k (rho^2 - |theta - c|^2), c = b / 2k
    a, b, quad = 0.0, np.zeros(r), np.zeros((r, r))
    for term in region[0]["terms"]:
        e, coeff = term["exponents"], term["coeff"]
        if sum(e) == 0:
            a += coeff
        elif sum(e) == 1:
            b[e.index(1)] += coeff
        elif sum(e) == 2:
            i, j = [q for q, power in enumerate(e) for _ in range(power)]
            quad[i, j] += coeff
        else:
            return None
    k = -quad[0, 0]
    if not (k > 0 and np.array_equal(quad, -k * np.eye(r))):
        return None
    c = b / (2 * k)
    rho2 = a / k + c @ c
    if rho2 <= 0:
        return None
    if np.sum(np.max((box - c[:, None]) ** 2, axis=1)) <= rho2:
        return on_vertices()  # every vertex lies in the ball
    rho = math.sqrt(rho2)
    if np.any(c - rho < box[:, 0]) or np.any(c + rho > box[:, 1]):
        return None
    if r == 1:
        return float(lambda2(np.array([c - rho, c + rho])).min())
    if r != 2:
        return None

    def on_circle(phi):
        phi = np.atleast_1d(phi)
        return lambda2(c + rho * np.stack([np.cos(phi), np.sin(phi)], 1))

    n = 4096
    h = 2 * math.pi / n
    phi = h * np.arange(n)
    v = on_circle(phi)
    minima = np.flatnonzero((v < np.roll(v, 1)) & (v <= np.roll(v, -1)))
    best = float(v.min())
    for m in minima[np.argsort(v[minima])][:3]:
        res = minimize_scalar(lambda t: float(on_circle(t)[0]),
                              bounds=(phi[m] - h, phi[m] + h),
                              method="bounded", options={"xatol": 1e-12})
        best = min(best, float(res.fun))
    return best
