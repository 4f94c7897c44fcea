"""Barrier potentials for edge keeping and collision avoidance.

Two families of potentials drive the controller.  The edge-keeping barrier
psi_e grows from zero at perfect formation to its cap mu1 exactly when a
formation pair reaches its sensing margin, so bounded total energy keeps
formation edges alive.  The collision barrier psi_c vanishes at the desired
separation and climbs to its cap mu2 exactly at the safety distance d_s, so
bounded energy keeps agents apart.

Each barrier is one private kernel on arrays of pair differences, for its
value or gradient; PairArrays and tune_mu call it.
PairArrays reads the pairs of one mask epoch off its masks, in row-major
order, and computes once what the epoch holds constant: the energy W and
the control law -grad W (one np.bincount scatter) are then a few array
operations per call.

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
    if np.count_nonzero(D <= 0):
        k = int(np.flatnonzero(D <= 0)[0])
        at = ", ".join(f"{name}={np.broadcast_to(v, D.shape).flat[k]:.6f}"
                       for name, v in values.items())
        raise DomainViolation(
            f"{what} denominator {np.ravel(D)[k]:.3e} <= 0 at {at}", k)
    return D


def _psi_e(y, r_hat_s, mu1: float, grad: bool):
    """psi_e = q^2 / D, D = r_hat_s - q + r_hat_s^2/mu1, q = ||y||, at the
    formation errors y (one vector or (pairs, dim)): mu1 at q = r_hat_s.
    With grad, its gradient (2 D + q) / D^2 * y with respect to the first
    agent's position.  mu1 = inf gives the envelope q^2 / (r_hat_s - q)."""
    q = np.sqrt(np.add.reduce(y * y, axis=-1))  # np.linalg.norm's sum
    D = _checked(r_hat_s - q + r_hat_s * r_hat_s / mu1, "psi_e", q=q,
                 r_hat_s=r_hat_s)
    if grad:
        return ((2.0 * D + q) / (D * D))[..., None] * y
    return q * q / D


def _psi_c(x, tau_norm, d_s: float, mu2: float, grad: bool):
    """psi_c = (p - tau_norm)^2 / (p - d_s + (d_s - tau_norm)^2/mu2),
    p = ||x||, at the separations x (one vector or (pairs, dim)): mu2 at
    p = d_s.  With grad, its gradient with respect to the first agent's
    position.  mu2 = inf gives the envelope (p - tau_norm)^2 / (p - d_s)."""
    p = np.sqrt(np.add.reduce(x * x, axis=-1))
    gap = d_s - tau_norm
    D = _checked(p - d_s + gap * gap / mu2, "psi_c", p=p, tau_norm=tau_norm)
    diff = p - tau_norm
    if not grad:
        return diff * diff / D
    if (p == 0.0).any():
        raise DomainViolation(
            "psi_c gradient singular at zero separation; collision "
            "avoidance has already failed", int(np.argmax(p == 0.0)))
    return ((2.0 * diff * D - diff * diff) / (D * D) / p)[..., None] * x


def zone_pairs_at(dist: np.ndarray, topo: TopologyState,
                  geom: AgentGeometry) -> np.ndarray:
    """Read-only mask of the edges currently inside the collision zone
    (dist < r_z), dist the pair-distance matrix (pair_distances)."""
    zone = (dist < geom.r_z) & topo.edges
    zone.flags.writeable = False
    return zone


class PairArrays:
    """The pairs of one mask epoch, where W and the control law are
    evaluated.

    W = sum over formation pairs of psi_e
      + sum over zone pairs of psi_c
      + 1/2 sum over edges of G_ij ||y_ij||^2
      + 1/2 sum over agents of ||rho_i||^2,

    with y = positions - tau.  The zone pairs are frozen for the epoch,
    which is what the drift monitor needs across a step; all that is
    constant over the epoch is computed once, when it is built."""

    def __init__(self, topo: TopologyState, zone: np.ndarray,
                 tau: np.ndarray, geom: AgentGeometry, G: np.ndarray):
        tau = np.asarray(tau, dtype=float)
        fi, fj = self.fi, self.fj = np.nonzero(topo.formation)
        zi, zj = self.zi, self.zj = np.nonzero(zone)
        ei, ej = self.ei, self.ej = np.nonzero(topo.edges)
        d_tau = pair_distances(tau)
        self.r_hat = geom.r_s - d_tau[fi, fj]
        if (self.r_hat <= 0).any():
            raise ValueError(f"r_hat_s must be positive, got {self.r_hat}")
        self.z_tn = d_tau[zi, zj]
        self.w = np.asarray(G, dtype=float)[ei, ej]
        # formation and edge pairs both read y: one gather for the two
        self.yi, self.yj = np.concatenate([fi, ei]), np.concatenate([fj, ej])
        # control's scatter: the flat (agent, coordinate) slot of -g at the
        # first and +g at the second agent of each group of pairs in turn
        k = np.concatenate([fi, fj, zi, zj, ei, ej])[:, None]
        self.scatter = (tau.shape[1] * k + np.arange(tau.shape[1])).ravel()
        self.tau, self.geom, self.topo, self.zone = tau, geom, topo, zone

    def _barriers(self, positions: np.ndarray, params: BarrierParams,
                  grad: bool) -> tuple:
        """psi_e on the formation pairs and psi_c on the zone pairs, or
        with grad their gradients, then the edge pairs' y_i - y_j.  A
        domain violation names its pair."""
        y = positions - self.tau
        d = y.take(self.yi, 0) - y.take(self.yj, 0)
        nf = self.fi.size
        i, j, z = self.fi, self.fj, d[:0]
        try:
            f = _psi_e(d[:nf], self.r_hat, params.mu1, grad)
            i, j = self.zi, self.zj
            if i.size:
                z = _psi_c(positions.take(i, 0) - positions.take(j, 0),
                           self.z_tn, self.geom.d_s, params.mu2, grad)
        except DomainViolation as err:
            k = err.index
            raise DomainViolation(f"pair ({i[k]},{j[k]}): {err}", k) from None
        return f, z, d[nf:]

    def control(self, positions: np.ndarray, velocities: np.ndarray,
                params: BarrierParams) -> np.ndarray:
        f, z, e = self._barriers(positions, params, True)
        w = self.w[:, None]
        s = w * e + w * (velocities.take(self.ei, 0)
                         - velocities.take(self.ej, 0))
        g = np.concatenate([-f, f, -z, z, -s, s]).ravel()
        return np.bincount(self.scatter, g, minlength=positions.size
                           ).reshape(positions.shape)

    def energy(self, positions: np.ndarray, velocities: np.ndarray,
               params: BarrierParams) -> float:
        f, z, e = self._barriers(positions, params, False)
        return (0.5 * float((velocities * velocities).sum())
                + float(f.sum()) + float(z.sum())
                + 0.5 * float((self.w * (e * e).sum(axis=1)).sum()))


@dataclass
class TuneResult:
    """Tuned caps plus the quantities that justify them."""

    params: BarrierParams
    mu_safe: float
    w0: float


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
    N = positions.shape[0]
    eps_hat = eps_hat_default(geom)
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

    def mu_safe_at(mu: float) -> tuple[float, float]:
        params = BarrierParams(mu, mu, eps_hat)
        try:
            w0 = max(a.energy(positions, velocities, params)
                     for a in epochs)
        except DomainViolation as err:
            raise TuneError(
                f"initial state is outside the barrier envelope: {err}"
            ) from err
        zone_cap = float(np.max(_psi_c(np.array([geom.r_z]), pair_taus,
                                       geom.d_s, mu, grad=False))) \
            if pair_taus.size else 0.0
        return w0 + 0.5 * N * (N - 1) * zone_cap, w0

    envelope = mu_safe_at(math.inf)[0]
    mu = TUNE_MARGIN * envelope if envelope > 0 else 1.0
    need, w0 = mu_safe_at(mu)
    if TUNE_MARGIN * need > mu:
        raise TuneError(f"caps mu={mu:.6e} do not dominate "
                        f"{TUNE_MARGIN} * mu_safe={TUNE_MARGIN * need:.6e}")
    return TuneResult(params=BarrierParams(mu, mu, eps_hat), mu_safe=need,
                      w0=w0)
