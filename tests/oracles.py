"""Slow reference paths, kept as oracles for the fast code.

Most functions here loop over agents or pairs in Python and measure every
distance on their own, the way the package did before its geometry was
read off one pair-distance matrix and its energy and control were evaluated
on index arrays (barrier.PairArrays).  schur_matrix is the SDP solver's
generic Schur complement builder, one path for every constraint column.
The tests compare each with the package.
"""

import numpy as np

from robustform.barrier import grad_psi_c, grad_psi_e, psi_c, psi_e
from robustform.netgraph import TopologyState, canon_edge


def update_edges(positions, topo, geom, t=0.0):
    """Hysteresis update: add at <= r_s - eps, drop non-formation > r_s."""
    positions = np.asarray(positions, dtype=float)
    N = topo.n_agents
    edges = set(topo.edges)
    changed = False
    for i in range(N):
        for j in range(i + 1, N):
            e = (i, j)
            dist = np.linalg.norm(positions[i] - positions[j])
            if e in edges:
                if dist > geom.r_s and e not in topo.formation_edges:
                    edges.remove(e)
                    changed = True
            elif dist <= geom.r_s - geom.eps:
                edges.add(e)
                changed = True
    if not changed:
        return topo
    return TopologyState(N, frozenset(edges), topo.formation_edges,
                         last_switch_time=t)


def initial_topology(positions, formation_edges, geom):
    """Formation edges plus every pair inside the hysteresis-add radius."""
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


def zone_pairs_at(positions, topo, geom):
    """Connected pairs with distance < r_z."""
    positions = np.asarray(positions, dtype=float)
    return frozenset(
        (i, j) for (i, j) in topo.edges
        if np.linalg.norm(positions[i] - positions[j]) < geom.r_z)


def neighbor_sets(i, positions, topo, geom):
    """(sensing neighbors, formation neighbors among them, collision-zone
    neighbors among them) for agent i; zone membership is dist < r_z."""
    positions = np.asarray(positions, dtype=float)
    ns, nsf, nsz = set(), set(), set()
    for j in range(topo.n_agents):
        if j == i or not topo.has_edge(i, j):
            continue
        ns.add(j)
        if canon_edge(i, j) in topo.formation_edges:
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
    for (i, j) in topo.formation_edges:
        tau_norm = float(np.linalg.norm(tau[i] - tau[j]))
        W += psi_e(float(np.linalg.norm(y[i] - y[j])),
                   geom.r_s - tau_norm, params.mu1)
    for (i, j) in zone_pairs:
        W += psi_c(float(np.linalg.norm(positions[i] - positions[j])),
                   float(np.linalg.norm(tau[i] - tau[j])),
                   geom.d_s, params.mu2)
    for (i, j) in topo.edges:
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
        nsz = {j for j in ns if canon_edge(i, j) in zone_pairs}
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


def schur_matrix(A_list, scalings, sizes, n_vars, chunk):
    """Generic Schur complement B_ij = sum_k <F_{k,i}, W_k F_{k,j} W_k>.

    Every nonzero column is unpacked to a dense symmetric matrix, taken
    through W M W, and multiplied by the whole of A' again."""
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
