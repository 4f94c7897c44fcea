"""Barrier potentials for edge keeping and collision avoidance.

Two families of potentials drive the controller.  The edge-keeping barrier
psi_e grows from zero at perfect formation to its cap mu1 exactly when a
formation pair reaches its sensing margin, so bounded total energy keeps
formation edges alive.  The collision barrier psi_c vanishes at the desired
separation and climbs to its cap mu2 exactly at the safety distance d_s, so
bounded energy keeps agents apart.

Each barrier is one private kernel on arrays of pair differences: it checks
its denominators once and hands back its value and its gradient as two
functions of no arguments.  PairArrays reads the pairs of one mask epoch off
its masks, in row-major order, and computes once what the epoch holds
constant, the denominators' cap shifts among it.  A Point evaluates an
epoch's pair terms at one stacked state z = [x, v]; the energy W and the rate
dz/dt = [v, -grad W] (one np.bincount scatter) both read that one
evaluation, so an RK4 end point is measured once for the energy monitor, the
record and the next step's first stage.

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
    """The barrier caps: mu1 of edge keeping, mu2 of collision avoidance."""

    mu1: float
    mu2: float

    def __post_init__(self):
        if not (self.mu1 > 0 and self.mu2 > 0):
            raise ValueError(
                f"caps must be positive, got mu1={self.mu1}, "
                f"mu2={self.mu2}")


def _violation(D, what: str, **values) -> DomainViolation:
    """The DomainViolation of the first pair where the denominator D <= 0,
    naming the values there."""
    k = int(np.flatnonzero(D <= 0)[0])
    at = ", ".join(f"{name}={np.broadcast_to(v, D.shape).flat[k]:.6f}"
                   for name, v in values.items())
    return DomainViolation(
        f"{what} denominator {np.ravel(D)[k]:.3e} <= 0 at {at}", k)


def _psi_e(y, r_hat_s, shift):
    """psi_e = q^2 / D, D = r_hat_s - q + shift, q = ||y||, at the formation
    errors y (one vector or (pairs, dim)).  shift = r_hat_s^2 / mu1 puts the
    cap mu1 at q = r_hat_s; shift = 0 (mu1 = inf) gives the envelope
    q^2 / (r_hat_s - q).  Checks D > 0, then returns psi_e and its gradient
    (2 D + q) / D^2 * y with respect to the first agent's position, each as
    a function of no arguments."""
    q = np.sqrt(np.add.reduce(y * y, axis=-1))  # np.linalg.norm's sum
    D = r_hat_s - q + shift
    if np.count_nonzero(D <= 0):
        raise _violation(D, "psi_e", q=q, r_hat_s=r_hat_s)
    return (lambda: q * q / D,
            lambda: ((2.0 * D + q) / (D * D))[..., None] * y)


def _psi_c(x, tau_norm, d_s: float, shift):
    """psi_c = (p - tau_norm)^2 / D, D = p - d_s + shift, p = ||x||, at the
    separations x (one vector or (pairs, dim)).  shift = (d_s - tau_norm)^2
    / mu2 puts the cap mu2 at p = d_s; shift = 0 (mu2 = inf) gives the
    envelope (p - tau_norm)^2 / (p - d_s).  Checks D > 0, then returns
    psi_c and its gradient with respect to the first agent's position, each
    as a function of no arguments; the gradient raises DomainViolation at
    zero separation."""
    p = np.sqrt(np.add.reduce(x * x, axis=-1))
    D = p - d_s + shift
    if np.count_nonzero(D <= 0):
        raise _violation(D, "psi_c", p=p, tau_norm=tau_norm)
    diff = p - tau_norm

    def grad():
        if np.count_nonzero(p == 0.0):
            raise DomainViolation(
                "psi_c gradient singular at zero separation; collision "
                "avoidance has already failed", int(np.argmax(p == 0.0)))
        return ((2.0 * diff * D - diff * diff) / (D * D) / p)[..., None] * x

    return lambda: diff * diff / D, grad


def _at_pair(err: DomainViolation, i, j) -> DomainViolation:
    """err, naming the pair (i[k], j[k]) of its index k."""
    k = err.index
    return DomainViolation(f"pair ({i[k]},{j[k]}): {err}", k)


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

    with y = positions - tau, at stacked states z = [x, v] (2 x N x d).
    The zone pairs are frozen for the epoch, which is what the drift
    monitor needs across a step; all that is constant over the epoch, the
    caps' shifts of the barrier denominators among it, is computed once,
    when it is built."""

    def __init__(self, topo: TopologyState, zone: np.ndarray,
                 tau: np.ndarray, geom: AgentGeometry, G: np.ndarray,
                 params: BarrierParams):
        tau = np.asarray(tau, dtype=float)
        fi, fj = self.fi, self.fj = np.nonzero(topo.formation)
        zi, zj = self.zi, self.zj = np.nonzero(zone)
        ei, ej = np.nonzero(topo.edges)
        d_tau = pair_distances(tau)
        r_hat = self.r_hat = geom.r_s - d_tau[fi, fj]
        if (r_hat <= 0).any():
            raise ValueError(f"r_hat_s must be positive, got {r_hat}")
        self.e_shift = r_hat * r_hat / params.mu1
        self.z_tn = d_tau[zi, zj]
        gap = geom.d_s - self.z_tn
        self.c_shift = gap * gap / params.mu2
        self.w = np.asarray(G, dtype=float)[ei, ej]
        self.w_col = self.w[:, None]
        # formation and edge pairs both read y = z - [tau, 0], the formation
        # errors and the edges' velocity differences: one gather for all
        self.yi, self.yj = np.concatenate([fi, ei]), np.concatenate([fj, ej])
        self.offset = np.stack([tau, np.zeros_like(tau)])
        self.no_pairs = self.offset[0, :0]
        # rate's scatter: the flat slot in z of the control u = rate[1], -g
        # at the first and +g at the second agent of each group of pairs
        k = np.concatenate([fi, fj, zi, zj, ei, ej])[:, None]
        self.scatter = (tau.size + tau.shape[1] * k
                        + np.arange(tau.shape[1])).ravel()
        self.tau, self.geom, self.topo, self.zone = tau, geom, topo, zone


class Point:
    """The pair terms of one PairArrays epoch at one stacked state
    z = [x, v] (2 x N x d): the gathered pair differences and the checked
    barrier denominators, which energy() and rate() both read.

    Building it raises DomainViolation, naming the pair, where a
    denominator is not positive (the formation pairs first); the gradients,
    and with them the zero-separation check, are formed by the first
    rate()."""

    __slots__ = ("arrays", "z", "d", "edge", "zone", "_rate")

    def __init__(self, arrays: PairArrays, z: np.ndarray):
        a = arrays
        y = z - a.offset
        d = y.take(a.yi, 1) - y.take(a.yj, 1)
        self.arrays, self.z, self.d, self.zone, self._rate = \
            a, z, d, None, None
        i, j = a.fi, a.fj
        try:
            self.edge = _psi_e(d[0, :i.size], a.r_hat, a.e_shift)
            if a.zi.size:
                i, j, x = a.zi, a.zj, z[0]
                self.zone = _psi_c(x.take(i, 0) - x.take(j, 0), a.z_tn,
                                   a.geom.d_s, a.c_shift)
        except DomainViolation as err:
            raise _at_pair(err, i, j) from None

    def energy(self) -> float:
        """W at z."""
        a, v = self.arrays, self.z[1]
        e = self.d[0, a.fi.size:]
        return (0.5 * float((v * v).sum()) + float(self.edge[0]().sum())
                + (float(self.zone[0]().sum()) if self.zone else 0.0)
                + 0.5 * float((a.w * (e * e).sum(axis=1)).sum()))

    def rate(self) -> np.ndarray:
        """dz/dt = [v, u] at z, u = -grad W the control law; formed once."""
        if self._rate is None:
            a, z = self.arrays, self.z
            f, c = self.edge[1](), a.no_pairs
            if self.zone:
                try:
                    c = self.zone[1]()
                except DomainViolation as err:
                    raise _at_pair(err, a.zi, a.zj) from None
            ws = a.w_col * self.d[:, a.fi.size:]
            s = ws[0] + ws[1]
            g = np.concatenate([-f, f, -c, c, -s, s]).ravel()
            # bincount sums no weights at all in integers
            k = np.bincount(a.scatter, g, minlength=z.size).reshape(z.shape) \
                if g.size else np.zeros_like(z)
            k[0] = z[1]
            self._rate = k
        return self._rate


@dataclass
class TuneResult:
    """Tuned caps plus the quantities that justify them."""

    params: BarrierParams
    mu_safe: float
    w0: float


# tune_mu's cap margin over the worst-case energy
TUNE_MARGIN = 1.1
# region samples, after its own theta, at which a run tunes its caps
TUNE_SAMPLES = 16


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
    z = np.stack([positions, velocities])
    gaps = geom.d_s - pair_taus

    def mu_safe_at(mu: float) -> tuple[float, float]:
        params = BarrierParams(mu, mu)
        try:
            w0 = max(Point(PairArrays(topo, zone, tau, geom, G, params),
                           z).energy() for G in weight_samples)
        except DomainViolation as err:
            raise TuneError(
                f"initial state is outside the barrier envelope: {err}"
            ) from err
        zone_cap = float(np.max(_psi_c(np.array([geom.r_z]), pair_taus,
                                       geom.d_s, gaps * gaps / mu)[0]())) \
            if pair_taus.size else 0.0
        return w0 + 0.5 * N * (N - 1) * zone_cap, w0

    envelope = mu_safe_at(math.inf)[0]
    mu = TUNE_MARGIN * envelope if envelope > 0 else 1.0
    need, w0 = mu_safe_at(mu)
    if TUNE_MARGIN * need > mu:
        raise TuneError(f"caps mu={mu:.6e} do not dominate "
                        f"{TUNE_MARGIN} * mu_safe={TUNE_MARGIN * need:.6e}")
    return TuneResult(params=BarrierParams(mu, mu), mu_safe=need,
                      w0=w0)
