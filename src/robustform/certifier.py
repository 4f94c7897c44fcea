"""Robust algebraic-connectivity certification over a parameter region.

Given a weighted interaction graph whose edge weights are polynomials in an
uncertain parameter vector, restricted to a semialgebraic region, this module
decides whether the graph stays connected for *every* admissible parameter
and produces a standalone certificate that can be re-checked without running
the solver again.

The certified quantity is a uniform lower bound c on the symmetrized reduced
pencil P Lhat(theta) + Lhat(theta) P = 2 Lhat(theta) / s, where Lhat is the
s-by-s Laplacian compressed onto the complement of the all-ones direction and
the pencil matrix P is fixed at I / s: Lhat is symmetric, so it is positive
definite at a point exactly when this pencil is.  The bound is enforced
through Gram-matrix (sum of squares) constraints with one positive multiplier
per region inequality.  Because the squared power vector used in the Gram
expansion is at least one everywhere, a positive optimal c* gives
2 Lhat(theta) / s >= c* I on the region, so c* s / 2 is a certified lower
bound on the algebraic connectivity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee

from . import sdp
from .netgraph import UncertainAdjacency, laplacian, reduced_basis, \
    reduced_laplacian
from .polyalg import ExponentVec, MatrixPolynomial, mono_degree, mono_mul
# the scenario reader's typed readers, which name the key path of a bad value
from .scenario import _field, _get, _is_int, _is_number, _items, _matrix, \
    _number, _require, known_keys
from .smr import PowerVector, _positions, gram_base, gram_expand, \
    gram_null_basis, power_vector

# A solved bound above this value counts as a connectivity verdict; below it
# the outcome is treated as inconclusive rather than as a disconnection proof.
CONNECTIVITY_THRESHOLD = 1e-6

# verify_certificate's tolerances on the replayed and the sampled eigenvalues
PSD_TOL = 1e-6
SAMPLE_TOL = 1e-6

# least_eigenvalues calls LAPACK's subset driver dsyevx once per matrix from
# this order on, and a batched eigvalsh of the whole stack below it.  At one
# BLAS thread, per random symmetric matrix, the least eigenvalue alone cost
# 5.7 us against 2.3 for the batched eigvalsh at order 5, 10.6 against 9.1
# at 12, 13.8 against 14.3 at 16, 15.9 against 17.9 at 18, 18.2 against 21.9
# at 20 and 63.8 against 112 at 49.  The two least (sample_lambda2's k = 2)
# break even later: 25.8 against 24.2 at order 20, 31.4 against 31.7 at 24
# and 86.1 against 116 at 49.  dsyevr, the other subset driver, read 67.5 us
# at order 49.
SUBSET_ORDER = 20

# sample_lambda2 takes the band route when the Laplacian's half-bandwidth b
# in reverse Cuthill-McKee order satisfies BAND_RATIO * (b + 1) <= N.  At one
# BLAS thread a dsbevx call for lambda_2 alone cost 5.3 us per point against
# 3.0 for the dense route (least_eigenvalues, k = 2) at (N, b) = (6, 2), 7.8
# against 6.5 at (10, 2), 8.8 against 8.8 at (12, 2), 14.2 against 23.8 at
# (20, 2), 37.5 against 79 at (50, 2), 79 against 78 at (50, 12) and 104
# against 78 at (50, 49).  The one pair where the rule picks the slower
# route is (24, 23), 25 against 28 us, and no ratio that keeps (50, 49) dense
# can pick the band there.
BAND_RATIO = 4

# _setup refuses a relaxation of more SDP variables: the solver's Schur
# matrix of 10 000 variables takes 800 MB
MAX_SDP_VARS = 10_000


class CertifierError(ValueError):
    pass


@dataclass(frozen=True)
class DegreePlan:
    """Relaxation degrees: d_H for the Gram identity, one multiplier degree
    per region inequality."""

    d_H: int
    d_R: tuple[int, ...]

    @classmethod
    def auto(cls, deg_L: int, region_degrees: Sequence[int]) -> "DegreePlan":
        """Smallest balanced plan for the given data degrees, the only plan
        `certify` writes and `verify_certificate` accepts.

        d_H starts at ceil(deg_L / 2) and is raised until every region
        inequality admits a nonnegative multiplier degree; each multiplier
        then gets the largest degree that still fits."""
        d_H = (deg_L + 1) // 2
        for dg in region_degrees:
            d_H = max(d_H, (dg + 1) // 2)
        d_R = tuple((2 * d_H - dg) // 2 for dg in region_degrees)
        return cls(d_H, d_R)

    def to_dict(self) -> dict:
        # d_P, the degree of the pencil matrix, stays in the file format;
        # the pencil matrix is the constant I / s, so it is always 0
        return {"d_P": 0, "d_H": self.d_H, "d_R": list(self.d_R)}

    def n_vars(self, r: int, s: int) -> int:
        """SDP variable count of the relaxation in r parameters of an
        s-square reduced Laplacian, in closed form: the bound c, one
        symmetric block per multiplier and the null directions of the Gram
        expansion, which every monomial of degree <= 2 d_H takes."""
        def svec(d):  # svec dimension of a Gram block of degree d
            return sdp.svec_dim(math.comb(r + d, r) * s)
        return 1 + sum(map(svec, self.d_R)) + svec(self.d_H) \
            - math.comb(r + 2 * self.d_H, r) * sdp.svec_dim(s)

    @classmethod
    def from_dict(cls, d: dict) -> "DegreePlan":
        """The plan of a certificate's degree_plan object d; raises
        ValueError naming the key path of a bad value."""
        keys = ("d_P", "d_H", "d_R")
        known_keys(d, "degree_plan", keys)
        d_P, d_H, d_R = (_get(d, "degree_plan", key) for key in keys)
        if not (_is_int(d_P) and d_P == 0):
            raise CertifierError(
                f"pencil matrix degree d_P = {d_P!r}; only constant "
                f"pencil matrices (d_P = 0) are supported")
        _require(_is_int(d_H) and d_H >= 0, "degree_plan.d_H",
                 "an integer >= 0", d_H)
        _require(isinstance(d_R, list), "degree_plan.d_R", "a list", d_R)
        for k, x in enumerate(d_R):
            _require(_is_int(x) and x >= 0, f"degree_plan.d_R[{k}]",
                     "an integer >= 0", x)
        return cls(d_H, tuple(d_R))


@dataclass
class Assembly:
    """A compiled certification problem plus the variable map needed to
    interpret its solution."""

    problem: sdp.SdpProblem
    plan: DegreePlan
    r: int
    s: int
    c_index: int
    r_vars: list[sdp.MatrixVar]
    delta_indices: list[int]
    phi_H: PowerVector
    phi_R: list[PowerVector]
    main_lmi: int


def _setup(adj: UncertainAdjacency):
    """Everything the certification problem of adj is built from: the
    reduced Laplacian, the automatic degree plan, the power vectors of the
    Gram identity and of each multiplier, the Gram positions of the
    identity's power vector and the null basis of its Gram expansion.

    UncertainAdjacency guarantees a symmetric weight matrix with a zero
    diagonal and region inequalities in its parameters, and reduced_basis
    at least two agents.  Raises CertifierError, before any power vector is
    built, when the relaxation has more than MAX_SDP_VARS variables."""
    L_hat = reduced_laplacian(laplacian(adj), reduced_basis(adj.N))
    plan = DegreePlan.auto(L_hat.deg(), [
        max(map(mono_degree, adj.omega.terms(k, 0)), default=0)
        for k in range(adj.omega.rows)])
    n_vars = plan.n_vars(adj.r, L_hat.rows)
    if n_vars > MAX_SDP_VARS:
        raise CertifierError(
            f"degree plan d_H={plan.d_H} d_R={list(plan.d_R)} asks for "
            f"{n_vars} SDP variables, above the limit of {MAX_SDP_VARS}")
    phi_H = power_vector(adj.r, plan.d_H)
    return (L_hat, plan, phi_H, [power_vector(adj.r, dr) for dr in plan.d_R],
            _positions(phi_H), gram_null_basis(adj.r, plan.d_H, L_hat.rows))


def gram_image(X: np.ndarray, phi_X: PowerVector, factor: dict,
               phi_H: PowerVector, s: int, pos_H: dict) -> np.ndarray:
    """Gram matrix against phi_H of a product with the matrix polynomial
    whose Gram matrix is X against phi_X; linear in X.  X may carry
    leading batch axes, which the result shares.

    factor maps monomials to s-by-s matrices or to scalars.  Matrices
    (the reduced Laplacian L) give the pencil, Gram(P L + L' P); scalars
    (a region inequality g) give the multiplier term, Gram(R g)."""
    terms: dict[ExponentVec, np.ndarray] = {}
    for e1, A in gram_expand(X, phi_X, s).items():
        for e2, C in factor.items():
            if np.ndim(C):
                M = A @ C
                M = M + np.swapaxes(M, -1, -2)
            else:
                M = C * A
            mu = mono_mul(e1, e2)
            terms[mu] = terms[mu] + M if mu in terms else M
    if not terms:
        return np.zeros(np.shape(X)[:-2] + (len(phi_H) * s,) * 2)
    return gram_base(terms, phi_H, s, pos_H)


def assemble(adj: UncertainAdjacency) -> Assembly:
    """Compile the certification problem for an uncertain adjacency.

    Maximize c subject to

        R_bar_i >= 0,
        Gram(P Lhat + Lhat P) + C(delta) - c I
            - sum_i Gram(R_i * g_i)  >=  0,   P = I / s,

    where every Gram image is taken against the degree-d_H power vector,
    C(delta) ranges over the null directions of the Gram expansion, and g_i
    are the region inequalities.  Expanding the final constraint shows that
    on the region the pencil 2 Lhat / s dominates c * |phi(theta)|^2 * I,
    hence c * I when c >= 0, since the power vector contains the constant
    monomial."""
    L_hat, plan, phi_H, phi_R, pos_H, nulls = _setup(adj)
    s = L_hat.rows
    r = adj.r
    size_H = len(phi_H) * s

    prob = sdp.SdpProblem()
    c_index = prob.add_var(obj=1.0)
    r_vars = [prob.add_psd_var(len(pv) * s) for pv in phi_R]
    delta_indices = [prob.add_var() for _ in range(nulls.shape[1])]

    pencil = gram_image(np.eye(s) / s, power_vector(r, 0), L_hat.coeffs,
                        phi_H, s, pos_H)
    # one svec column per variable, in variable order: c, the R_i, delta
    columns = [sparse.csc_array(-sdp.svec(np.eye(size_H))[:, None])]
    length = sdp.batch_length(size_H, size_H)
    for k, (var, pv) in enumerate(zip(r_vars, phi_R)):
        g, m = adj.omega.terms(k, 0), len(var.indices)
        for lo in range(0, m, length):
            units = np.eye(min(length, m - lo), m, lo)
            G = gram_image(sdp.smat(units, var.size), pv, g, phi_H, s, pos_H)
            columns.append(sparse.csc_array(-sdp.svec(G).T))
    columns.append(nulls)

    main_lmi = prob.add_lmi(pencil, sparse.hstack(columns, format="csc"))
    return Assembly(problem=prob, plan=plan, r=r, s=s, c_index=c_index,
                    r_vars=r_vars, delta_indices=delta_indices, phi_H=phi_H,
                    phi_R=phi_R, main_lmi=main_lmi)


@dataclass
class Certificate:
    """Standalone connectivity certificate: the certified bound plus every
    matrix needed to replay the Gram identity.  P_bar is the constant
    pencil matrix, I / s for a certificate written by `certify`."""

    n_agents: int
    r: int
    plan: DegreePlan
    c_star: float
    P_bar: np.ndarray
    R_bars: list[np.ndarray]
    delta: np.ndarray

    def to_dict(self) -> dict:
        return {
            "format": "connectivity-certificate/1",
            "n_agents": self.n_agents,
            "r": self.r,
            "degree_plan": self.plan.to_dict(),
            "c_star": self.c_star,
            "threshold": CONNECTIVITY_THRESHOLD,
            "P_bar": self.P_bar.tolist(),
            "R_bars": [R.tolist() for R in self.R_bars],
            "delta": self.delta.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Certificate":
        """The certificate of a document; raises ValueError naming the key
        path of a bad value, as a scenario does.  Non-finite numbers load:
        verify_certificate refuses them by name."""
        _require(isinstance(d, dict), "certificate", "a JSON object", d)
        if d.get("format") != "connectivity-certificate/1":
            raise CertifierError(
                f"unrecognized certificate format {d.get('format')!r}")
        known_keys(d, "", ("format", "n_agents", "r", "degree_plan",
                           "c_star", "threshold", "P_bar", "R_bars", "delta"))
        if d.get("threshold", CONNECTIVITY_THRESHOLD) \
                != CONNECTIVITY_THRESHOLD:
            raise CertifierError(
                f"threshold {d['threshold']!r} is not the connectivity "
                f"threshold {CONNECTIVITY_THRESHOLD}")
        n_agents, r = _field(d, "n_agents"), _field(d, "r")
        _require(_is_int(n_agents) and n_agents >= 2, "n_agents",
                 "an integer >= 2", n_agents)
        _require(_is_int(r) and r >= 0, "r", "an integer >= 0", r)
        delta = _items(d, "delta")
        for k, x in enumerate(delta):
            _require(_is_number(x), f"delta[{k}]", "a number", x)
        return cls(
            n_agents=n_agents,
            r=r,
            plan=DegreePlan.from_dict(_field(d, "degree_plan")),
            c_star=_number(d, "c_star"),
            P_bar=_matrix(_field(d, "P_bar"), "P_bar"),
            R_bars=[_matrix(R, f"R_bars[{k}]")
                    for k, R in enumerate(_items(d, "R_bars"))],
            delta=np.array(delta, dtype=float),
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Certificate":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class CertifyResult:
    certificate: Certificate
    solution: sdp.SdpSolution
    refusals: list[str]

    @property
    def connected(self) -> bool:
        return not self.refusals


def certify(adj: UncertainAdjacency, tol: float = 1e-8) -> CertifyResult:
    """Solve the certification problem for an uncertain adjacency.

    A failed solve is one refusal, made without a replay; else the refusals
    are those of the certificate.  Inconclusive never proves disconnection."""
    asm = assemble(adj)
    sol = sdp.solve(asm.problem, tol=tol)
    y = sol.y
    cert = Certificate(
        n_agents=adj.N, r=asm.r, plan=asm.plan, c_star=float(y[asm.c_index]),
        P_bar=np.eye(asm.s) / asm.s,
        R_bars=[v.value(y) for v in asm.r_vars],
        delta=np.array([y[i] for i in asm.delta_indices]))
    return CertifyResult(cert, sol, refusals(cert, adj) if sol.ok else [
        f"solver status {sol.status}, c_star={cert.c_star}"])


def refusals(cert: Certificate, adj: UncertainAdjacency) -> list[str]:
    """Why cert does not prove adj connected, [] when it does: the one gate
    of the certify verdict and of every run.  In order: a c* that does not
    clear CONNECTIVITY_THRESHOLD, the CertifierError of a certificate that
    does not fit adj, the failures of verify_certificate without samples."""
    reasons = [] if cert.c_star > CONNECTIVITY_THRESHOLD else [
        f"c_star={cert.c_star} does not clear its threshold "
        f"{CONNECTIVITY_THRESHOLD}"]
    try:
        return reasons + verify_certificate(cert, adj, n_samples=0).failures
    except CertifierError as err:
        return reasons + [str(err)]


def least_eigenvalues(stack: np.ndarray, k: int = 1,
                      first: int = 0) -> np.ndarray:
    """The k smallest eigenvalues, ascending, of each symmetric matrix in
    stack, of shape (..., n, n) with k <= n; the result has shape (..., k).

    Below SUBSET_ORDER one batched eigvalsh takes the whole spectrum of
    every matrix.  From it on LAPACK's subset driver dsyevx bisects for the
    k values alone, one call per matrix; the two agree to rounding.  Both
    read the lower triangle.  A failed dsyevx call raises CertifierError
    naming the sample, numbered from first."""
    n = stack.shape[-1]
    if n < SUBSET_ORDER:
        return np.linalg.eigvalsh(stack)[..., :k]
    flat = stack.reshape(-1, n, n)
    out = np.empty((len(flat), k))
    for i, A in enumerate(flat):
        w, _, m, _, info = lapack.dsyevx(A, compute_v=0, range="I", il=1,
                                         iu=k, lower=1)
        if info != 0 or m != k:
            raise CertifierError(
                f"dsyevx failed at sample {first + i}: info={info}, "
                f"{m} eigenvalues")
        out[i] = w[:k]
    return out.reshape(stack.shape[:-2] + (k,))


@dataclass
class VerifyReport:
    """Outcome of replaying a certificate against the graph data.

    Two independent routes: an algebraic replay of the Gram identity
    (min_eigenvalues, the least eigenvalue of P_bar, of each R_bar and,
    last, of the pencil block; trace_error) and a pointwise sweep over
    sampled parameters (sampled_pencil_margin)."""

    ok: bool
    min_eigenvalues: list[float]
    trace_error: float
    sampled_pencil_margin: float
    failures: list[str] = field(default_factory=list)


def verify_certificate(cert: Certificate, adj: UncertainAdjacency,
                       n_samples: int = 2000, seed: int = 0) -> VerifyReport:
    """Re-check a certificate without the solver.

    Replays the Gram identity by evaluating the main constraint of the
    certification problem at the stored matrices and reading off its least
    eigenvalue and those of the stored matrices, then independently
    samples the region and checks the pencil dominance numerically at each
    sample point, by the least eigenvalue of its pencil.  Every least
    eigenvalue comes from least_eigenvalues, so it is one dsyevx call per
    matrix of order SUBSET_ORDER or more, and a batched eigvalsh below.
    Raises CertifierError, before any arithmetic, for a certificate with a
    field that is not finite or that does not fit adj."""
    for name, value in [("c_star", cert.c_star), ("P_bar", cert.P_bar)] + [
            (f"R_bars[{i}]", R) for i, R in enumerate(cert.R_bars)] + [
            ("delta", cert.delta)]:
        if not np.isfinite(value).all():
            raise CertifierError(f"{name} is not finite")
    if cert.n_agents != adj.N:
        raise CertifierError(
            f"certificate is for {cert.n_agents} agents, adjacency has "
            f"{adj.N}")
    if cert.r != adj.r:
        raise CertifierError(
            f"certificate has {cert.r} parameters, adjacency has {adj.r}")
    L_hat, plan, phi_H, phi_R, pos_H, nulls = _setup(adj)
    if cert.plan != plan:
        raise CertifierError(
            f"certificate degree plan {cert.plan} is not the automatic plan "
            f"{plan} of the adjacency")
    s = L_hat.rows
    if len(cert.R_bars) != len(phi_R):
        raise CertifierError(
            f"{len(cert.R_bars)} multiplier matrices for "
            f"{len(phi_R)} region inequalities")
    if cert.delta.size != nulls.shape[1]:
        raise CertifierError(
            f"{cert.delta.size} Gram offsets for {nulls.shape[1]} null "
            f"directions")
    phi_0 = power_vector(adj.r, 0)
    stored = [("P_bar", cert.P_bar, phi_0)] + [
        (f"R_bars[{i}]", R, pv)
        for i, (R, pv) in enumerate(zip(cert.R_bars, phi_R))]
    for name, X, pv in stored:
        if X.shape != (len(pv) * s,) * 2 or not np.array_equal(X, X.T):
            raise CertifierError(
                f"{name} must be a symmetric {len(pv) * s}-square "
                f"matrix, got shape {X.shape}")

    H = gram_image(cert.P_bar, phi_0, L_hat.coeffs, phi_H, s, pos_H)
    for k, (R, pv) in enumerate(zip(cert.R_bars, phi_R)):
        H -= gram_image(R, pv, adj.omega.terms(k, 0), phi_H, s, pos_H)
    H += sdp.smat(nulls @ cert.delta, len(H))
    H -= cert.c_star * np.eye(len(H))
    min_eigs = [float(least_eigenvalues(X)[0])
                for X in [X for _, X, _ in stored] + [H]]
    pencil_margin = min_eigs[-1]
    trace_error = abs(float(np.trace(cert.P_bar)) - 1.0)

    failures: list[str] = []
    for k, ev in enumerate(min_eigs[:-1]):
        if ev < -PSD_TOL:
            failures.append(
                f"stored matrix for block {k} has eigenvalue {ev:.3e}")
    if pencil_margin < -PSD_TOL:
        failures.append(
            f"Gram identity violated: pencil block eigenvalue "
            f"{pencil_margin:.3e}")
    if trace_error > PSD_TOL:
        failures.append(f"trace normalization off by {trace_error:.3e}")

    # Pointwise route: evaluate everything numerically at region samples,
    # a batch of samples at a time.
    rng = np.random.default_rng(seed)
    thetas = adj.sample_omega(rng, n_samples) if n_samples > 0 else \
        np.zeros((0, adj.r))
    sampled_pencil = float("inf")
    if len(thetas):
        P = cert.P_bar
        length = sdp.batch_length(s, s)
        for lo in range(0, len(thetas), length):
            batch = thetas[lo:lo + length]
            # P is symmetric, so (P L)' = L' P and the pencil is P L + (P L)'
            H_num = P @ L_hat.eval_batch(batch)
            H_num += H_num.transpose(0, 2, 1)
            norm2 = np.sum(phi_H.eval_batch(batch) ** 2, axis=1)
            H_num.reshape(len(batch), s * s)[:, ::s + 1] -= \
                cert.c_star * norm2[:, None]
            sampled_pencil = min(sampled_pencil, float(
                least_eigenvalues(H_num, first=lo).min()))
        if sampled_pencil < -SAMPLE_TOL:
            failures.append(
                f"sampled pencil dominance violated by "
                f"{sampled_pencil:.3e}")

    return VerifyReport(ok=not failures, min_eigenvalues=min_eigs,
                        trace_error=trace_error,
                        sampled_pencil_margin=sampled_pencil,
                        failures=failures)


@dataclass
class Lambda2Samples:
    """Sampled algebraic-connectivity sweep over the region."""

    values: np.ndarray
    thetas: np.ndarray
    min_value: float
    argmin: np.ndarray


def band_form(L: MatrixPolynomial) -> MatrixPolynomial | None:
    """Lower-band storage of the symmetric N x N matrix polynomial L in
    reverse Cuthill-McKee order of its sparsity pattern, or None when the
    band is too wide to pay off (see BAND_RATIO).

    The result is (b + 1) x N, b the half-bandwidth: its entry [k, j] is
    entry [j + k, j] of the permuted L, as LAPACK's band drivers read it
    with lower=1.  Band storage is linear in L, so evaluating the result
    at theta gives the band of L(theta)."""
    N = L.rows
    pattern = np.zeros((N, N), dtype=bool)
    for C in L.coeffs.values():
        pattern |= C != 0
    order = reverse_cuthill_mckee(sparse.csr_array(pattern),
                                  symmetric_mode=True)
    rank = np.empty(N, dtype=int)
    rank[order] = np.arange(N)
    i, j = np.nonzero(pattern)
    b = int(np.abs(rank[i] - rank[j]).max(initial=0))
    if BAND_RATIO * (b + 1) > N:
        return None
    row = np.arange(b + 1)[:, None] + np.arange(N)
    rows = order[np.minimum(row, N - 1)]
    return MatrixPolynomial(b + 1, N, L.r, {
        e: np.where(row < N, C[rows, order], 0.0)
        for e, C in L.coeffs.items()})


def sample_lambda2(adj: UncertainAdjacency, n_samples: int = 10000,
                   seed: int | None = None) -> Lambda2Samples:
    """Second-smallest Laplacian eigenvalue at sampled region points.

    A purely numerical check, independent of the Gram machinery: draw
    parameters from the region, evaluate the Laplacian, take eigenvalues.
    A sparse graph (see band_form) takes LAPACK's band driver dsbevx for
    lambda_2 alone at each point; any other graph takes the two least
    eigenvalues of each dense Laplacian from least_eigenvalues.  Each route
    agrees with a full eigvalsh to rounding, within 1e-12 of
    max(1, ||L(theta)||)."""
    if n_samples <= 0:
        raise CertifierError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    thetas = adj.sample_omega(rng, n_samples)
    L = laplacian(adj)
    band = band_form(L)
    values = np.empty(n_samples)
    if band is None:
        length = sdp.batch_length(adj.N, adj.N)
        for lo in range(0, n_samples, length):
            values[lo:lo + length] = least_eigenvalues(
                L.eval_batch(thetas[lo:lo + length]), 2, lo)[:, 1]
    else:
        length = sdp.batch_length(adj.N, band.rows)
        for lo in range(0, n_samples, length):
            for k, ab in enumerate(band.eval_batch(thetas[lo:lo + length]),
                                   lo):
                w, _, m, _, info = lapack.dsbevx(
                    ab, 0.0, 0.0, 2, 2, compute_v=0, range=2, lower=1)
                if info != 0 or m != 1:
                    raise CertifierError(
                        f"dsbevx failed at sample {k}: info={info}, "
                        f"{m} eigenvalues")
                values[k] = w[0]
    k = int(np.argmin(values))
    return Lambda2Samples(values=values, thetas=thetas,
                          min_value=float(values[k]),
                          argmin=thetas[k].copy())
