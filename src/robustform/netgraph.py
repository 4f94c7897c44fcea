"""Sensing graphs, uncertain adjacency matrices, and Laplacian reductions.

Agents interact through a time-varying undirected sensing graph with
hysteresis: a pair becomes an edge when its distance drops to r_s - eps and
the edge is only removed when the distance exceeds r_s.  Formation edges are
designated at setup and are never removed by the update rule; losing one at
runtime is an alarm raised by the simulator's monitors, not something this
module does silently.  Pairwise geometry is one N x N distance matrix per
state (pair_distances, summed coordinate by coordinate); pair sets such as
the edges are read-only boolean masks over it, True only at (i, j), i < j
(upper_mask).  The setup assumptions read the formation pairs off it.

Edge weights may depend polynomially on an uncertainty vector theta confined
to a semialgebraic set Omega = {theta : s_i(theta) >= 0}.  Connectedness of
the weighted graph for every theta in Omega is equivalent to positivity of
the second Laplacian eigenvalue throughout Omega, which the certifier module
decides through the reduced Laplacian M^T L M, where the columns of M form a
fixed orthonormal basis of the hyperplane orthogonal to the all-ones vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.sparse.csgraph import connected_components

from .polyalg import MatrixPolynomial


class GeometryError(ValueError):
    """Radius bookkeeping that cannot support the barrier construction."""


@dataclass(frozen=True)
class AgentGeometry:
    """Radii and margins shared by every agent.

    r_a   physical agent radius
    r_c   communication-hardware radius (r_c >= r_a)
    r_z   collision-avoidance activation radius
    r_s   sensing radius
    d_s   minimum allowed center distance (safety), d_s >= 2 r_c
    eps   hysteresis margin for edge addition, 0 <= eps <= r_s - r_z
    """

    r_a: float
    r_c: float
    r_z: float
    r_s: float
    d_s: float
    eps: float

    def __post_init__(self):
        if not (0 < self.r_a <= self.r_c < self.r_z < self.r_s):
            raise GeometryError(
                f"need 0 < r_a <= r_c < r_z < r_s, got r_a={self.r_a}, "
                f"r_c={self.r_c}, r_z={self.r_z}, r_s={self.r_s}")
        if self.d_s < 2 * self.r_c:
            raise GeometryError(
                f"need d_s >= 2*r_c, got d_s={self.d_s}, r_c={self.r_c}")
        if self.d_s >= self.r_z:
            raise GeometryError(
                f"need d_s < r_z, got d_s={self.d_s}, r_z={self.r_z}")
        if not (0 <= self.eps <= self.r_s - self.r_z):
            raise GeometryError(
                f"need 0 <= eps <= r_s - r_z, got eps={self.eps}")


class RegionSamplingError(ValueError):
    """Rejection sampling found too few points of Omega in its box."""


# rounds of rejection sampling before sample_omega gives up
SAMPLE_MAX_TRIES = 200


@dataclass
class UncertainAdjacency:
    """Symmetric polynomial weight matrix plus the uncertainty set Omega.

    entries     N x N MatrixPolynomial, zero diagonal, symmetric
    omega       k x 1 MatrixPolynomial of the region inequalities, s_i in
                row i; Omega = {theta : all s_i(theta) >= 0}
    box         per-parameter bounds enclosing Omega, used for rejection
                sampling
    """

    N: int
    entries: MatrixPolynomial
    omega: MatrixPolynomial
    box: list[tuple[float, float]]

    def __post_init__(self):
        if self.entries.shape != (self.N, self.N):
            raise ValueError(
                f"adjacency shape {self.entries.shape}, expected "
                f"({self.N}, {self.N})")
        for i in range(self.N):
            if self.entries.terms(i, i):
                raise ValueError(f"nonzero diagonal entry at ({i},{i})")
        if not self.entries.is_symmetric():
            raise ValueError("adjacency is not symmetric")
        r = self.entries.r
        if self.omega.cols != 1 or self.omega.r != r:
            raise ValueError(f"Omega must be one column of polynomials in "
                             f"{r} parameters, got {self.omega}")
        if len(self.box) != r:
            raise ValueError(f"uncertainty.box: {len(self.box)} intervals, "
                             f"expected {r}")
        for lo, hi in self.box:
            if not lo < hi:
                raise ValueError(f"uncertainty.box: ({lo}, {hi}) is empty")

    @property
    def r(self) -> int:
        return self.entries.r

    def sample_omega(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Rejection-sample n points of Omega from the bounding box."""
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        out = np.empty((0, self.r))
        for _ in range(SAMPLE_MAX_TRIES):
            cand = rng.uniform(lo, hi, size=(max(n, 64), self.r))
            keep = np.all(self.omega.eval_batch(cand)[..., 0] >= 0.0, axis=1)
            out = np.vstack([out, cand[keep]])
            if out.shape[0] >= n:
                return out[:n]
        raise RegionSamplingError(
            f"uncertainty.region: could not draw {n} samples of the region "
            f"from uncertainty.box in {SAMPLE_MAX_TRIES} rounds; got "
            f"{out.shape[0]} (is the box far larger than the region?)")


def upper_mask(value, name: str, n: int) -> np.ndarray:
    """value as a read-only n x n boolean pair mask; raises ValueError
    naming name unless it is True only above the diagonal."""
    mask = np.array(value, dtype=bool)
    if mask.shape != (n, n) or np.tril(mask).any():
        raise ValueError(f"{name}: need a {n} x {n} mask True only above "
                         f"the diagonal, got shape {mask.shape}")
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True, eq=False)
class TopologyState:
    """Current undirected edges and the formation edges: two read-only
    N x N boolean masks, True only at pairs (i, j) with i < j."""

    edges: np.ndarray
    formation: np.ndarray

    def __post_init__(self):
        n = len(self.edges)
        for name in ("edges", "formation"):
            object.__setattr__(self, name,
                               upper_mask(getattr(self, name), name, n))

    @cached_property
    def connected(self) -> bool:
        """Whether the edges join all agents.  Cached: one scipy call costs
        about 0.3 ms of sparse-matrix set-up, and run asks at every record."""
        return connected_components(self.edges, directed=False)[0] == 1


def laplacian(adj: UncertainAdjacency) -> MatrixPolynomial:
    """Graph Laplacian Delta - G of the adjacency's weight matrix G."""
    G = adj.entries
    return MatrixPolynomial(
        G.rows, G.cols, G.r,
        {e: np.diag(C.sum(axis=1)) - C for e, C in G.coeffs.items()})


def reduced_basis(N: int) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane {x : 1^T x = 0}.

    Columns are the Helmert vectors v_k = (1,...,1,-k,0,...,0)/sqrt(k(k+1)),
    giving an N x (N-1) matrix M with M^T M = I and 1^T M = 0."""
    if N < 2:
        raise ValueError("need at least two agents")
    M = np.zeros((N, N - 1))
    for k in range(1, N):
        M[:k, k - 1] = 1.0
        M[k, k - 1] = -k
        M[:, k - 1] /= np.sqrt(k * (k + 1))
    return M


def reduced_laplacian(L: MatrixPolynomial, M: np.ndarray):
    """M^T L M of a polynomial Laplacian; drops the trivial all-ones
    eigenspace.

    Connectedness for a given theta is exactly positive definiteness of the
    reduced matrix there."""
    k = M.shape[1]
    return MatrixPolynomial(k, k, L.r,
                            {e: M.T @ C @ M for e, C in L.coeffs.items()})


def pair_distances(x: np.ndarray) -> np.ndarray:
    """N x N matrix of center distances ||x_i - x_j||, adding the squared
    differences coordinate by coordinate, as np.linalg.norm(axis=-1) does."""
    return np.sqrt(sum(np.square(np.subtract.outer(c, c)) for c in x.T))


@lru_cache
def _above_diagonal(n: int) -> np.ndarray:
    """The read-only n x n mask True only above the diagonal, made once."""
    return upper_mask(np.triu(np.ones((n, n)), 1), "", n)


def update_edges(dist: np.ndarray, topo: TopologyState,
                 geom: AgentGeometry) -> TopologyState:
    """One hysteresis update of the edge mask from the pair-distance matrix
    dist: add at <= r_s - eps, remove a non-formation edge beyond r_s.
    Returns topo itself when nothing changes."""
    drop = (dist > geom.r_s) & ~topo.formation
    edges = topo.edges & ~drop \
        | (dist <= geom.r_s - geom.eps) & _above_diagonal(len(dist))
    if np.array_equal(edges, topo.edges):
        return topo
    return TopologyState(edges, topo.formation)


# the setup assumptions validate_assumptions checks, by name
ASSUMPTIONS = ("A1", "A2", "A3")


def validate_assumptions(tau: np.ndarray, formation: np.ndarray,
                         initial_positions: np.ndarray, geom: AgentGeometry,
                         overrides: dict[str, str] | None = None
                         ) -> tuple[bool, list[str]]:
    """Check the three setup assumptions on the formation mask's pairs.

    A1: every formation pair's desired distance lies in [r_z, r_s - eps].
    A2: every formation pair is within sensing range (r_s - eps) at t0, so
        the initial edge set contains the formation edges.
    A3: r_s - ||tau_ij|| > d_s + ||tau_ij|| for formation pairs, i.e. the
        sensing-maintenance barrier's radius strictly exceeds the largest
        formation error at which a collision could occur.

    overrides maps an assumption name to a reason string; an overridden
    assumption is reported as skipped and does not fail the check.
    Returns whether none fails, and the report: per assumption a line
    `A1: PASS`, `FAIL` or `SKIPPED (reason)`, then one indented line per
    violating pair, listed under a skipped assumption too."""
    overrides = overrides or {}
    fi, fj = np.nonzero(formation)
    desired = pair_distances(tau)[fi, fj]
    initial = pair_distances(initial_positions)[fi, fj]

    found = {name: [] for name in ASSUMPTIONS}
    for i, j, d, d0 in zip(fi, fj, desired.tolist(), initial.tolist()):
        if not (geom.r_z <= d <= geom.r_s - geom.eps):
            found["A1"].append(f"pair ({i},{j}): desired distance {d:.4f} "
                               f"outside [{geom.r_z}, {geom.r_s - geom.eps}]")
        if d0 > geom.r_s - geom.eps:
            found["A2"].append(f"pair ({i},{j}): initial distance {d0:.4f} "
                               f"> {geom.r_s - geom.eps}")
        if not (geom.r_s - d > geom.d_s + d):
            found["A3"].append(
                f"pair ({i},{j}): r_s - {d:.4f} = {geom.r_s - d:.4f} "
                f"not > d_s + {d:.4f} = {geom.d_s + d:.4f}")
    passed, lines = True, []
    for name, violations in found.items():
        if name in overrides:
            status = f"SKIPPED ({overrides[name]})"
        else:
            status = "FAIL" if violations else "PASS"
            passed = passed and not violations
        lines += [f"{name}: {status}"] + [f"  {v}" for v in violations]
    return passed, lines
