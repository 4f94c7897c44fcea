"""Barrier potentials for edge keeping and collision avoidance.

Two families of potentials drive the controller.  The edge-keeping barrier
psi_e grows from zero at perfect formation to its cap mu1 exactly when a
formation pair reaches its sensing margin, so bounded total energy keeps
formation edges alive.  The collision barrier psi_c vanishes at the desired
separation and climbs to its cap mu2 exactly at the safety distance d_s, so
bounded energy keeps agents apart.

psi_e, psi_c and their gradients are written once, on arrays of pairs (a
scalar is a single pair).  PairArrays reads the pairs of one mask epoch off
its masks, in row-major order, and evaluates with them the composite
energy W and the control law -grad W.

The caps are not free parameters: tune_mu picks them above the worst-case
initial energy plus everything zone entries can ever add, which is what
makes the invariance argument go through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netgraph import AgentGeometry, TopologyState, pair_distances


class DomainViolation(RuntimeError):
    """A barrier was evaluated outside its admissible domain.

    During a simulation this means the invariance guarantee already failed
    upstream: either the caps were tuned wrong or the integrator stepped
    through the boundary.  index is the position of the first offending
    pair when the barrier was evaluated on an array of pairs."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class TuneError(RuntimeError):
    pass


@dataclass(frozen=True)
class BarrierParams:
    """Barrier caps and the edge-keeping margin epsilon-hat."""

    mu1: float
    mu2: float
    eps_hat: float

    def __post_init__(self):
        if not (self.mu1 > 0 and self.mu2 > 0):
            raise ValueError(
                f"caps must be positive, got mu1={self.mu1}, "
                f"mu2={self.mu2}")
        if not self.eps_hat > 0:
            raise ValueError(f"eps_hat must be positive, got {self.eps_hat}")


def eps_hat_default(geom: AgentGeometry) -> float:
    """Margin below the sensing radius used by the edge-keeping argument.

    Half of min{d_s/2 - r_c, eps} when that interval is nonempty.  The
    boundary geometry d_s = 2 r_c leaves the interval empty; there the
    margin falls back to eps/2, which preserves every monitored invariant
    (the interval's role is slack between the collision cap and the hard
    radius, and the fallback only affects how close to the sensing boundary
    an edge may start)."""
    upper = min(geom.d_s / 2.0 - geom.r_c, geom.eps)
    if upper > 0:
        return upper / 2.0
    return geom.eps / 2.0


def _checked(D, what: str, **values):
    """D, after raising DomainViolation at the first pair where D <= 0."""
    if (D <= 0).any():
        k = int(np.flatnonzero(D <= 0)[0])
        at = ", ".join(f"{name}={np.broadcast_to(v, D.shape).flat[k]:.6f}"
                       for name, v in values.items())
        raise DomainViolation(
            f"{what} denominator {np.ravel(D)[k]:.3e} <= 0 at {at}", k)
    return D


def _edge_denominator(q, r_hat_s, mu1: float):
    return _checked(r_hat_s - q + r_hat_s * r_hat_s / mu1, "psi_e",
                    q=q, r_hat_s=r_hat_s)


def _collision_denominator(p, tau_norm, d_s: float, mu2: float):
    gap = d_s - tau_norm
    return _checked(p - d_s + gap * gap / mu2, "psi_c", p=p,
                    tau_norm=tau_norm)


def psi_e(q, r_hat_s, mu1: float):
    """Edge-keeping barrier at formation error q = ||y_ij||.

    q^2 / (r_hat_s - q + r_hat_s^2/mu1); equals mu1 exactly at
    q = r_hat_s.  mu1 = inf gives the envelope q^2 / (r_hat_s - q)."""
    q = np.asarray(q, dtype=float)
    if (q < 0).any():
        raise ValueError(f"q is a norm, got {q}")
    if (np.asarray(r_hat_s) <= 0).any():
        raise ValueError(f"r_hat_s must be positive, got {r_hat_s}")
    return q * q / _edge_denominator(q, r_hat_s, mu1)


def grad_psi_e(y_ij, r_hat_s, mu1: float):
    """Gradient of psi_e with respect to the first agent's position.

    ((2 D + q) / D^2) * y_ij with D the psi_e denominator; finite as
    q -> 0.  y_ij is one formation error vector or a (pairs, dim) array."""
    y_ij = np.asarray(y_ij, dtype=float)
    q = np.linalg.norm(y_ij, axis=-1)
    D = _edge_denominator(q, r_hat_s, mu1)
    return ((2.0 * D + q) / (D * D))[..., None] * y_ij


def psi_c(p, tau_norm, d_s: float, mu2: float):
    """Collision barrier at separation p = ||x_ij||.

    (p - tau_norm)^2 / (p - d_s + (d_s - tau_norm)^2/mu2); vanishes at the
    desired separation and equals mu2 exactly at p = d_s.  mu2 = inf gives
    the envelope (p - tau_norm)^2 / (p - d_s)."""
    p = np.asarray(p, dtype=float)
    if (p < 0).any():
        raise ValueError(f"p is a norm, got {p}")
    D = _collision_denominator(p, tau_norm, d_s, mu2)
    diff = p - tau_norm
    return diff * diff / D


def grad_psi_c(x_ij, tau_norm, d_s: float, mu2: float):
    """Gradient of psi_c with respect to the first agent's position.

    Chain rule through p = ||x_ij||, x_ij the separation vector (or a
    (pairs, dim) array of them); finite as p -> tau_norm."""
    x_ij = np.asarray(x_ij, dtype=float)
    p = np.linalg.norm(x_ij, axis=-1)
    D = _collision_denominator(p, tau_norm, d_s, mu2)
    if (p == 0.0).any():
        raise DomainViolation(
            "psi_c gradient singular at zero separation; collision "
            "avoidance has already failed", int(np.argmax(p == 0.0)))
    diff = p - tau_norm
    dpsi = (2.0 * diff * D - diff * diff) / (D * D)
    return (dpsi / p)[..., None] * x_ij


def zone_pairs_at(dist: np.ndarray, topo: TopologyState,
                  geom: AgentGeometry) -> np.ndarray:
    """Read-only mask of the edges currently inside the collision zone
    (dist < r_z), dist the pair-distance matrix (pair_distances)."""
    zone = np.triu(dist < geom.r_z, 1) & topo.edges
    zone.flags.writeable = False
    return zone


def _on_pairs(fn, i: np.ndarray, j: np.ndarray, *args):
    """fn(*args) on the pairs (i, j); a domain violation names its pair."""
    try:
        return fn(*args)
    except DomainViolation as err:
        k = err.index
        raise DomainViolation(f"pair ({i[k]},{j[k]}): {err}", k) from None


class PairArrays:
    """The pairs of one mask epoch, where W and the control law are
    evaluated.

    W = sum over formation pairs of psi_e
      + sum over zone pairs of psi_c
      + 1/2 sum over edges of G_ij ||y_ij||^2
      + 1/2 sum over agents of ||rho_i||^2,

    with y = positions - tau.  The zone pairs are frozen for the epoch,
    which is what the drift monitor needs across a step."""

    def __init__(self, topo: TopologyState, zone: np.ndarray,
                 tau: np.ndarray, geom: AgentGeometry, G: np.ndarray):
        tau = np.asarray(tau, dtype=float)
        self.fi, self.fj = np.nonzero(topo.formation)
        self.r_hat = geom.r_s - np.linalg.norm(tau[self.fi] - tau[self.fj],
                                               axis=1)
        self.zi, self.zj = np.nonzero(zone)
        self.z_tn = np.linalg.norm(tau[self.zi] - tau[self.zj], axis=1)
        self.ei, self.ej = np.nonzero(topo.edges)
        self.w = np.asarray(G, dtype=float)[self.ei, self.ej]
        self.tau = tau
        self.geom = geom
        self.topo = topo
        self.zone = zone

    def control(self, positions: np.ndarray, velocities: np.ndarray,
                params: BarrierParams) -> np.ndarray:
        y = positions - self.tau
        u = np.zeros_like(positions)
        if self.fi.size:
            g = _on_pairs(grad_psi_e, self.fi, self.fj,
                          y[self.fi] - y[self.fj], self.r_hat, params.mu1)
            np.add.at(u, self.fi, -g)
            np.add.at(u, self.fj, g)
        if self.zi.size:
            g = _on_pairs(grad_psi_c, self.zi, self.zj,
                          positions[self.zi] - positions[self.zj],
                          self.z_tn, self.geom.d_s, params.mu2)
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
            q = np.linalg.norm(y[self.fi] - y[self.fj], axis=1)
            W += float(np.sum(_on_pairs(psi_e, self.fi, self.fj, q,
                                        self.r_hat, params.mu1)))
        if self.zi.size:
            p = np.linalg.norm(positions[self.zi] - positions[self.zj],
                               axis=1)
            W += float(np.sum(_on_pairs(psi_c, self.zi, self.zj, p,
                                        self.z_tn, self.geom.d_s,
                                        params.mu2)))
        if self.ei.size:
            d = y[self.ei] - y[self.ej]
            W += 0.5 * float(np.sum(self.w * np.sum(d * d, axis=1)))
        return W


@dataclass
class TuneResult:
    """Tuned caps plus the quantities that justify them."""

    params: BarrierParams
    mu_safe: float
    w0: float
    zone_term: float


# tune_mu's cap margin over the worst-case energy
TUNE_MARGIN = 1.1


def tune_mu(positions: np.ndarray, velocities: np.ndarray, tau: np.ndarray,
            topo: TopologyState, geom: AgentGeometry,
            weight_samples) -> TuneResult:
    """Pick barrier caps that dominate the worst-case energy.

    The caps must beat mu_safe(mu) = W(t0; mu) + N(N-1)/2 * Psi_zone(mu),
    where Psi_zone bounds what one pair entering the collision zone can add
    and W(t0) is maximized over the supplied weight matrices.  A finite cap
    only enlarges the barrier denominators, so mu_safe(mu) is at most the
    envelope mu_safe(inf), in floating point as well; the caps are
    therefore set in one step to mu = TUNE_MARGIN * mu_safe(inf) (1 when
    that is 0), and TuneError is raised should TUNE_MARGIN * mu_safe(mu)
    ever exceed mu."""
    positions = np.asarray(positions, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    tau = np.asarray(tau, dtype=float)
    N = positions.shape[0]
    eps_hat = eps_hat_default(geom)
    weight_samples = [np.asarray(G, dtype=float) for G in weight_samples]
    if not weight_samples:
        raise TuneError("need at least one weight matrix sample")

    iu, ju = np.triu_indices(N, k=1)
    pair_taus = pair_distances(tau)[iu, ju]
    bad = np.flatnonzero(pair_taus <= geom.d_s)
    if bad.size:
        k = int(bad[0])
        raise TuneError(
            f"infeasible formation: desired distance {pair_taus[k]:.4f} "
            f"of pair ({iu[k]},{ju[k]}) is not above d_s={geom.d_s}")
    zone = zone_pairs_at(pair_distances(positions), topo, geom)
    epochs = [PairArrays(topo, zone, tau, geom, G) for G in weight_samples]

    def mu_safe_at(mu: float) -> tuple[float, float, float]:
        params = BarrierParams(mu, mu, eps_hat)
        try:
            w0 = max(a.energy(positions, velocities, params)
                     for a in epochs)
        except DomainViolation as err:
            raise TuneError(
                f"initial state is outside the barrier envelope: {err}"
            ) from err
        zone_cap = float(np.max(psi_c(geom.r_z, pair_taus, geom.d_s, mu))) \
            if pair_taus.size else 0.0
        zone_total = 0.5 * N * (N - 1) * zone_cap
        return w0 + zone_total, w0, zone_total

    envelope, _, _ = mu_safe_at(math.inf)
    mu = TUNE_MARGIN * envelope if envelope > 0 else 1.0
    need, w0, zone_total = mu_safe_at(mu)
    if TUNE_MARGIN * need > mu:
        raise TuneError(f"caps mu={mu:.6e} do not dominate "
                        f"{TUNE_MARGIN} * mu_safe={TUNE_MARGIN * need:.6e}")
    return TuneResult(params=BarrierParams(mu, mu, eps_hat), mu_safe=need,
                      w0=w0, zone_term=zone_total)
