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

assemble writes the problem in the Haar basis of netgraph.haar_basis,
which keeps the reduced Laplacian of a sparse graph sparse, and keeps only
the Gram offsets on its pattern; certify maps the solution into the
Helmert frame of netgraph.reduced_basis (_helmert_frame), the one frame of
the certificate and its replay.

Every route builds the pencil from one coefficient family, pencil_terms:
assemble and the algebraic replay take its Gram image of the reduced
Laplacian, and the sampled replay sweeps it on the N-square Laplacian,
where a sparse graph keeps its band.  Every sampled eigenvalue, of the
pencil or of the Laplacian, comes from one sweep, eigenvalue_at.  Both
sampled checks read only the least of them on the complement of the ones
vector, less an offset, which sampled_minimum finds exactly behind a
Cholesky screen on the difference basis that skips the points proven to
lie above it: one dpbtrf call per point where the sweep calls LAPACK once
per point, and one Cholesky batched across the points, _band_cholesky,
where it is one batched eigvalsh.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee

from . import sdp
from .netgraph import UncertainAdjacency, haar_basis, laplacian, \
    reduced_basis, reduced_laplacian
from .polyalg import ExponentVec, MatrixPolynomial, mono_degree, \
    mono_mul, mono_powers
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

# eigenvalue_at takes the band route when the matrix's half-bandwidth b in
# reverse Cuthill-McKee order satisfies BAND_RATIO * (b + 1) <= N.  At one
# BLAS thread a dsbevx call for lambda_2 alone cost 5.3 us per point against
# 3.0 for the dense route (least_eigenvalues, k = 2) at (N, b) = (6, 2), 7.8
# against 6.5 at (10, 2), 8.8 against 8.8 at (12, 2), 14.2 against 23.8 at
# (20, 2), 37.5 against 79 at (50, 2), 79 against 78 at (50, 12) and 104
# against 78 at (50, 49).  The one pair where the rule picks the slower
# route is (24, 23), 25 against 28 us, and no ratio that keeps (50, 49) dense
# can pick the band there.
BAND_RATIO = 4

# least_on_complement reads a second least eigenvalue above NULL_TOL times
# a bound on the matrix's norm as the least on the complement of the ones
# vector.  The computed eigenvalue of the ones vector, zero in exact
# arithmetic, stayed within 1.4e-16 of that bound on 60 signed rings of 12
# to 120 agents with weights scaled from 1e-6 to 1e6, at 300 points each
NULL_TOL = 1e-12

# sampled_minimum's Cholesky screen clears a point when LAPACK's dpbtrf, or
# the same factorisation batched across points, _band_cholesky, factorises
# the band of B = D' A(theta) D - t D'D, D = [e_i - e_{i+1}], for an
# N-square A that maps the ones vector to zero.  A factorisation that runs
# to completion is exact for B + dB with |dB| <= gamma_{kd+2} |R'| |R|
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm
# 10.3), and an R of half-bandwidth kd has
# || |R| ||^2 <= (kd + 1)^2 ||R||^2, so ||dB|| <= (kd + 2)^3 u ||B||.
# Forming B from q monomials of degree <= deg adds (q + deg + 3) u times
# ||D||^2 (nu + |t|), nu the norm bound of least_on_complement, which
# also bounds ||B||.  So mu_1 > t - slack_B / lambda_min(D'D), mu_1 the
# least eigenvalue on the range of D, with lambda_min(D'D) = 4 sin^2(pi /
# 2N) and ||D||^2 = 4 cos^2(pi / 2N).
# The screen takes t = offset + m + slack, m the running minimum, with
#     slack = SCREEN_TOL ((kd + 2)^3 + q + deg) ||D||^2 (nu + |offset + m|)
#             / lambda_min(D'D) + NULL_TOL nu,
# the last term for the error of the exact value (see NULL_TOL).
# SCREEN_TOL is about 4.5 u, u = 2^-53, which leaves room for the 1 / (1 -
# n u) factors of the bounds and the rounding of t
SCREEN_TOL = 5e-16

# sampled_minimum evaluates this many evenly spaced points exactly before it
# screens, and as many of the points that fail each screen
SCREEN_ROUND = 16

# _setup refuses a relaxation of more SDP variables: the solver's Schur
# matrix of 10 000 variables takes 800 MB
MAX_SDP_VARS = 10_000

# sample_lambda2 and verify_certificate refuse to draw more sample points.
# A draw's traced peak grows with the parameter count r: 32 bytes per point
# at fifty_agent's r = 1, 67 at six_agent's r = 2 and 212 on a disk in
# r = 8, so the limit holds a draw to 32, 67 and 212 MB
MAX_SAMPLES = 1_000_000


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
        expansion, which every monomial of degree <= 2 d_H takes.  It is
        the bound that MAX_SDP_VARS refuses on: assemble keeps only the
        null directions on the pattern of the reduced Laplacian."""
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
    interpret its solution: basis is the reduced basis the problem is
    written in, and nulls the Gram offset directions it keeps, the svec
    columns of delta_indices."""

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
    basis: np.ndarray
    nulls: sparse.csc_array


def _setup(adj: UncertainAdjacency, M: np.ndarray):
    """Everything the certification problem of adj is built from in the
    reduced basis M, haar_basis for the assembly and reduced_basis, the
    Helmert basis, for the replay: the Laplacian L, the reduced Laplacian
    M' L M, the automatic degree plan, the power vectors of the Gram
    identity and of each multiplier, the Gram positions of the identity's
    power vector and the full null basis of its Gram expansion.

    UncertainAdjacency guarantees a symmetric weight matrix with a zero
    diagonal and region inequalities in its parameters, and either basis
    at least two agents.  Raises CertifierError, before any power vector is
    built, when the relaxation with every Gram offset has more than
    MAX_SDP_VARS variables."""
    L = laplacian(adj)
    L_hat = reduced_laplacian(L, M)
    plan = DegreePlan.auto(L_hat.deg(), [
        max(map(mono_degree, adj.omega.terms(k, 0)), default=0)
        for k in range(adj.omega.rows)])
    n_vars = plan.n_vars(adj.r, L_hat.rows)
    if n_vars > MAX_SDP_VARS:
        raise CertifierError(
            f"degree plan d_H={plan.d_H} d_R={list(plan.d_R)} asks for "
            f"{n_vars} SDP variables, above the limit of {MAX_SDP_VARS}")
    phi_H = power_vector(adj.r, plan.d_H)
    return (L, L_hat, plan, phi_H,
            [power_vector(adj.r, dr) for dr in plan.d_R],
            _positions(phi_H), gram_null_basis(adj.r, plan.d_H, L_hat.rows))


def pencil_terms(P: np.ndarray, L: MatrixPolynomial
                 ) -> dict[ExponentVec, np.ndarray]:
    """Coefficient matrices by monomial of the pencil P L + L' P of a
    symmetric P: {e: P C_e + (P C_e)'} for L = sum_e C_e theta^e, the
    reduced Laplacian L_hat or the N-square Laplacian itself."""
    terms = {e: P @ C for e, C in L.coeffs.items()}
    return {e: M + M.T for e, M in terms.items()}


def gram_image(X: np.ndarray, phi_X: PowerVector, g: dict,
               phi_H: PowerVector, s: int, pos_H: dict) -> np.ndarray:
    """Gram matrix against phi_H of the multiplier term R g, R the matrix
    polynomial whose Gram matrix is X against phi_X and g a region
    inequality given by its terms; linear in X.  X may carry leading batch
    axes, which the result shares."""
    terms: dict[ExponentVec, np.ndarray] = {}
    for e1, A in gram_expand(X, phi_X, s).items():
        for e2, c in g.items():
            M = c * A
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
    C(delta) ranges over null directions of the Gram expansion, and g_i
    are the region inequalities.  Expanding the final constraint shows that
    on the region the pencil 2 Lhat / s dominates c * |phi(theta)|^2 * I,
    hence c * I when c >= 0, since the power vector contains the constant
    monomial.

    Lhat is M' L M in the Haar basis M = haar_basis(N), which keeps a
    sparse graph's Lhat sparse, and C(delta) keeps only the null
    directions whose every entry, at (a s + u, b s + v), has (u, v) on the
    pattern of Lhat's stored coefficients.  That restricts the relaxation,
    so c* can only fall, and every certificate stays valid: fifty_agent
    solves 1459 variables in place of 2402.  certify writes the solution
    in the Helmert frame of the replay (see _helmert_frame)."""
    M = haar_basis(adj.N)
    _, L_hat, plan, phi_H, phi_R, pos_H, nulls = _setup(adj, M)
    s = L_hat.rows
    r = adj.r
    size_H = len(phi_H) * s
    # the entries of each null direction off the pattern, counted from the
    # stored ones: the shared basis is read-only and may not be sorted
    iu, ju = sdp.svec_indices(size_H)
    off = ~_pattern(L_hat)[iu % s, ju % s]
    column = np.repeat(np.arange(nulls.shape[1]), np.diff(nulls.indptr))
    nulls = nulls[:, np.bincount(column, off[nulls.indices],
                                 nulls.shape[1]) == 0]

    prob = sdp.SdpProblem()
    c_index = prob.add_var(obj=1.0)
    r_vars = [prob.add_psd_var(len(pv) * s) for pv in phi_R]
    delta_indices = [prob.add_var() for _ in range(nulls.shape[1])]

    pencil = gram_base(pencil_terms(np.eye(s) / s, L_hat), phi_H, s, pos_H)
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
                    phi_R=phi_R, main_lmi=main_lmi, basis=M, nulls=nulls)


def _helmert_frame(asm: Assembly, y: np.ndarray
                   ) -> tuple[list[np.ndarray], np.ndarray]:
    """The multipliers R_bar and the Gram offsets delta of the solution y
    of asm, written in the Helmert frame of reduced_basis, which the
    certificate and its replay use.

    With T = M' M_helmert, M = asm.basis, the Helmert reduced Laplacian is
    T' Lhat T, so every Gram matrix X of asm maps by the congruence
    (I (x) T)' X (I (x) T), symmetrised.  The congruence keeps the null
    space of the Gram expansion, so the mapped offset C(delta) has the
    coordinates N' svec(C) in the full orthonormal null basis N."""
    T = asm.basis.T @ reduced_basis(len(asm.basis))
    s = asm.s

    def congruent(X):  # T' B T of each s-square block B of X
        n = len(X)
        blocks = X.reshape(n // s, s, n // s, s).swapaxes(1, 2)
        X = (T.T @ blocks @ T).swapaxes(1, 2).reshape(n, n)
        return (X + X.T) / 2

    offsets = congruent(sdp.smat(asm.nulls @ y[asm.delta_indices],
                                 len(asm.phi_H) * s))
    nulls = gram_null_basis(asm.r, asm.plan.d_H, asm.s)
    return ([congruent(v.value(y)) for v in asm.r_vars],
            nulls.T @ sdp.svec(offsets))


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
    R_bars, delta = _helmert_frame(asm, sol.y)
    cert = Certificate(
        n_agents=adj.N, r=asm.r, plan=asm.plan,
        c_star=float(sol.y[asm.c_index]), P_bar=np.eye(asm.s) / asm.s,
        R_bars=R_bars, delta=delta)
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
    sampled parameters (sampled_pencil_margin, the least sampled mu_1 of
    the full N-square pencil less c* |phi_H(theta)|^2; inf without
    samples)."""

    ok: bool
    min_eigenvalues: list[float]
    trace_error: float
    sampled_pencil_margin: float
    failures: list[str] = field(default_factory=list)


def verify_certificate(cert: Certificate, adj: UncertainAdjacency,
                       n_samples: int = 2000, seed: int = 0) -> VerifyReport:
    """Re-check a certificate without the solver.

    Replays the Gram identity: the least eigenvalues of the stored matrices
    and of the main constraint evaluated at them, whose pencil block is the
    Gram image of pencil_terms(P_bar, L_hat).  Then, independently, sweeps
    n_samples region points for the least of the pencil's least eigenvalue
    less c* |phi_H(theta)|^2, by sampled_minimum.  The sweep takes the full
    pencil, pencil_terms of P = I / s + M (P_bar - I / s) M' and the
    Laplacian L: that is M (P_bar L_hat + L_hat P_bar) M', whose
    eigenvalues are the reduced pencil's and a 0 on the ones vector, and
    least_on_complement reads mu_1, the least on the complement of the ones
    vector.  With the P_bar = I / s of every certificate that certify
    writes it is 2 L / s, which keeps the band of a sparse L; it is dense
    for a dense graph or a general P_bar.  sampled_minimum screens its
    points on the difference basis and evaluates exactly only those that
    may lie at the minimum.  Raises CertifierError, before any arithmetic,
    for a certificate with a field that is not finite or that does not fit
    adj, and before drawing for more than MAX_SAMPLES samples."""
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
    M = reduced_basis(adj.N)
    L, L_hat, plan, phi_H, phi_R, pos_H, nulls = _setup(adj, M)
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

    H = gram_base(pencil_terms(cert.P_bar, L_hat), phi_H, s, pos_H)
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

    # Pointwise route: the least over region samples of the full pencil's
    # mu_1 less c* |phi_H(theta)|^2, on the pencil's band where it has one
    sampled_pencil = float("inf")
    if n_samples > 0:
        thetas = _draw(adj, n_samples, seed)
        P = np.eye(adj.N) / s + M @ (cert.P_bar - np.eye(s) / s) @ M.T
        pencil = MatrixPolynomial(adj.N, adj.N, adj.r, pencil_terms(P, L))
        band = band_form(pencil)
        phi2 = np.sum(mono_powers(phi_H.monos, thetas, adj.r) ** 2, axis=1)
        sampled_pencil = sampled_minimum(
            pencil, band, thetas, cert.c_star * phi2,
            least_on_complement(pencil, band))
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
    """Sampled algebraic-connectivity sweep over the region: the points
    thetas, the least lambda_2 among them, the Laplacian L and its
    band_form.  values, the lambda_2 of L at each point, is computed on
    first read by the exhaustive sweep; min_value equals its least
    element."""

    thetas: np.ndarray
    min_value: float
    L: MatrixPolynomial
    band: MatrixPolynomial | None

    @functools.cached_property
    def values(self) -> np.ndarray:
        thetas = self.thetas
        if thetas.shape[1] == 0:  # r = 0: the region is one point
            return np.repeat(eigenvalue_at(self.L, thetas[:1], 2, self.band),
                             len(thetas))
        return eigenvalue_at(self.L, thetas, 2, self.band)


def band_form(L: MatrixPolynomial) -> MatrixPolynomial | None:
    """Lower-band storage of the symmetric N x N matrix polynomial L in
    reverse Cuthill-McKee order of its sparsity pattern, or None when the
    band is too wide to pay off (see BAND_RATIO).

    The result is (b + 1) x N, b the half-bandwidth: its entry [k, j] is
    entry [j + k, j] of the permuted L, as LAPACK's band drivers read it
    with lower=1.  Band storage is linear in L, so evaluating the result
    at theta gives the band of L(theta)."""
    N = L.rows
    pattern = _pattern(L)
    # a row of d nonzeros spans at least d // 2 places on one side of the
    # diagonal in any order, so b >= d // 2 without the ordering
    if BAND_RATIO * (pattern.sum(axis=1).max() // 2 + 1) > N:
        return None
    order = reverse_cuthill_mckee(sparse.csr_array(pattern),
                                  symmetric_mode=True)
    rank = np.empty(N, dtype=int)
    rank[order] = np.arange(N)
    i, j = np.nonzero(pattern)
    b = int(np.abs(rank[i] - rank[j]).max(initial=0))
    if BAND_RATIO * (b + 1) > N:
        return None
    return MatrixPolynomial(b + 1, N, L.r, {
        e: _lower_band(C[np.ix_(order, order)], b)
        for e, C in L.coeffs.items()})


def _pattern(A: MatrixPolynomial) -> np.ndarray:
    """Where some stored coefficient of A is nonzero, as a boolean
    matrix."""
    pattern = np.zeros(A.shape, dtype=bool)
    for C in A.coeffs.values():
        pattern |= C != 0
    return pattern


def _lower_band(B: np.ndarray, kd: int) -> np.ndarray:
    """The (kd + 1) x n lower-band storage of the n-square matrix B, as
    LAPACK's band routines read it with lower=1: entry [k, j] is B[j + k, j],
    and 0 past the last row."""
    n = len(B)
    row = np.arange(kd + 1)[:, None] + np.arange(n)
    return np.where(row < n, B[np.minimum(row, n - 1), np.arange(n)], 0.0)


def _unband(ab: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose lower-band storage is ab."""
    n = ab.shape[1]
    B = np.zeros((n, n))
    for k, diagonal in enumerate(ab):
        j = np.arange(n - k)
        B[j + k, j] = B[j, j + k] = diagonal[:n - k]
    return B


def eigenvalue_at(A: MatrixPolynomial, thetas: np.ndarray, k: int,
                  band: MatrixPolynomial | None) -> np.ndarray:
    """The k-th smallest eigenvalue of the symmetric matrix polynomial A at
    each point of the (m, r) batch thetas: LAPACK's band driver dsbevx at
    each point on band, band_form(A), and least_eigenvalues of each dense
    evaluation where that is None.  Both agree with eigvalsh within 1e-12
    of max(1, ||A(theta)||).  A failed call names the sample, numbered
    within thetas."""
    if band is None:
        return _least_at(A, thetas, k)[:, k - 1]
    values = np.empty(len(thetas))
    length = sdp.batch_length(A.rows, band.rows)
    for lo in range(0, len(thetas), length):
        for i, ab in enumerate(band.eval_batch(thetas[lo:lo + length]), lo):
            w, _, m, _, info = lapack.dsbevx(
                ab, 0.0, 0.0, k, k, compute_v=0, range=2, lower=1)
            if info != 0 or m != 1:
                raise CertifierError(
                    f"dsbevx failed at sample {i}: info={info}, "
                    f"{m} eigenvalues")
            values[i] = w[0]
    return values


def _least_at(A: MatrixPolynomial, thetas: np.ndarray, k: int
              ) -> np.ndarray:
    """least_eigenvalues(A(theta), k) at each point of thetas, shape (m,
    k), evaluating A densely in batches of sdp.batch_length."""
    out = np.empty((len(thetas), k))
    length = sdp.batch_length(A.rows, A.rows)
    for lo in range(0, len(thetas), length):
        out[lo:lo + length] = least_eigenvalues(
            A.eval_batch(thetas[lo:lo + length]), k, lo)
    return out


def least_on_complement(A: MatrixPolynomial,
                        band: MatrixPolynomial | None):
    """The sweep of mu_1, the least eigenvalue on the complement of the
    ones vector, of a symmetric N x N matrix polynomial A that maps the
    ones vector to zero, such as a Laplacian or its full pencil: a function
    of an (m, r) batch thetas, its value at each point.  band is
    band_form(A), None for a dense A.

    Besides its N - 1 eigenvalues on the complement, A(theta) has a 0 on
    the ones vector, which is computed as a rounding error of either sign.
    So mu_1 is A's second least eigenvalue where that lies above
    NULL_TOL nu(theta), nu = sum_e |theta^e| ||C_e||_F a bound on
    ||A(theta)||, and elsewhere whichever of the two least has the larger
    magnitude: eigenvalue_at sweeps k = 2 at every point and k = 1 only at
    the others, but for one batched eigvalsh (no band, order below
    SUBSET_ORDER), whose spectrum holds both.  Reading any positive second
    eigenvalue as mu_1 would take a computed +1e-17 for mu_1 where
    mu_1 < 0."""
    nu = _norm_bound(A)
    batched = band is None and A.rows < SUBSET_ORDER

    def mu_1(thetas: np.ndarray) -> np.ndarray:
        if batched:
            least, values = _least_at(A, thetas, 2).T
        else:
            values = eigenvalue_at(A, thetas, 2, band)
        low = np.flatnonzero(values <= NULL_TOL * nu(thetas))
        if low.size:
            least = least[low] if batched else \
                eigenvalue_at(A, thetas[low], 1, band)
            values[low] = np.where(np.abs(least) > np.abs(values[low]),
                                   least, values[low])
        return values
    return mu_1


def _norm_bound(A: MatrixPolynomial):
    """The function of a batch thetas that gives nu(theta) = sum_e
    |theta^e| ||C_e||_F at each point, a bound on ||A(theta)|| for A =
    sum_e C_e theta^e; the norms are taken once.  A bound that overflows
    is inf, or nan where an infinite norm meets a zero power, without a
    warning: either fails every test against it."""
    monos = list(A.coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.array([np.linalg.norm(A.coeffs[e]) for e in monos])

    def nu(thetas: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.abs(mono_powers(monos, thetas, A.r)) @ norms
    return nu


def _screen(A: MatrixPolynomial, band: MatrixPolynomial | None):
    """sampled_minimum's Cholesky screen of the symmetric N x N matrix
    polynomial A that maps the ones vector to zero: a function of a batch
    of points, their offsets and the running minimum m that is True at
    each point where a Cholesky factorisation of the band of
    D' A(theta) D - t(theta) D'D runs to completion, t = offset + m +
    slack (see SCREEN_TOL).  That proves mu_1(theta) - offset(theta) > m,
    mu_1 the least eigenvalue of A on the complement of the ones vector,
    with the exact value's error left over.  D is the difference basis
    [e_i - e_{i+1}] in the order of band, band_form(A), or of A where that
    is None.  The factorisation follows the route eigenvalue_at takes for
    A: dpbtrf once per point where that calls LAPACK once per point, on a
    band or from SUBSET_ORDER on, and _band_cholesky once per batch of
    points where it is one batched eigvalsh, without a band below
    SUBSET_ORDER.  Both take the same matrices and slack."""
    coeffs = A.coeffs if band is None else {
        e: _unband(C) for e, C in band.coeffs.items()}
    coeffs = {e: np.diff(np.diff(C, axis=0), axis=1)
              for e, C in coeffs.items()}
    gram = np.diff(np.diff(np.eye(A.rows), axis=0), axis=1)
    # ||D||^2 / lambda_min(D'D) of the difference basis
    cond = 1.0 / math.tan(math.pi / (2 * A.rows)) ** 2
    n = A.rows - 1
    kd = n - 1 if band is None else min(band.rows, n - 1)
    monos = list(coeffs)
    # one row per monomial and a last one for D'D, each a band transposed
    # so that every band of a batch is Fortran-ordered and dpbtrf
    # factorises it in place
    stack = np.stack([_lower_band(C, kd).T for C in [
        coeffs[e] for e in monos] + [gram]]).reshape(len(monos) + 1, -1)
    scale = SCREEN_TOL * ((kd + 2) ** 3 + len(monos) + A.deg()) * cond
    length = sdp.batch_length(kd + 1, n)
    # the route of the exact sweep: one batched eigvalsh of the whole stack
    # (see least_eigenvalues) is screened by one batched Cholesky
    batched = band is None and A.rows < SUBSET_ORDER
    norm_bound = _norm_bound(A)

    def passes(thetas: np.ndarray, offset: np.ndarray,
               least: float) -> np.ndarray:
        factorised = []
        nu = norm_bound(thetas)
        # a point whose t is not finite fails whatever its band holds, so
        # the inf and nan that such a t spreads are not worth a warning
        with np.errstate(all="ignore"):
            t = offset + least
            t = t + scale * (nu + np.abs(t)) + NULL_TOL * nu
            for lo in range(0, len(thetas), length):
                batch = slice(lo, lo + length)
                weights = np.column_stack(
                    [mono_powers(monos, thetas[batch], A.r), -t[batch]])
                bands = (weights @ stack).reshape(-1, n, kd + 1)
                bands = bands.transpose(0, 2, 1)
                factorised.append(_band_cholesky(bands) if batched else [
                    lapack.dpbtrf(ab, lower=1, overwrite_ab=1)[1] == 0
                    for ab in bands])
        return np.isfinite(t) & np.concatenate(factorised)
    return passes


def _band_cholesky(ab: np.ndarray) -> np.ndarray:
    """True at each band of the (points, kd + 1, n) stack ab, in the
    lower-band storage of _lower_band, that dpbtrf factorises: one
    right-looking Cholesky of every band at once, column by column, which
    overwrites ab.  A band passes only if every pivot is finite and
    positive, dpbtrf's rule but for an infinite pivot, which fails here.
    The backward-error bound of SCREEN_TOL holds for any order of the
    inner products, so it holds here as it does for dpbtrf."""
    kd, n = ab.shape[1] - 1, ab.shape[2]
    ok = np.ones(len(ab), dtype=bool)
    # a failed pivot leaves nan or inf in the columns after it
    with np.errstate(all="ignore"):
        for j in range(n):
            pivot = ab[:, 0, j]
            ok &= (pivot > 0) & (pivot < np.inf)
            m = min(kd, n - 1 - j)
            column = ab[:, 1:m + 1, j] / np.sqrt(pivot)[:, None]
            for i in range(m):
                ab[:, :m - i, j + 1 + i] -= column[:, i:] * column[:, i:i + 1]
    return ok


def sampled_minimum(A: MatrixPolynomial, band: MatrixPolynomial | None,
                    thetas: np.ndarray, offset: np.ndarray,
                    exact) -> float:
    """The least of exact(thetas) - offset over the (m, r) batch thetas,
    bit for bit the value of the exhaustive sweep.  exact maps a batch of
    points to an eigenvalue of the symmetric N x N matrix polynomial A at
    each, which maps the ones vector to zero, that is at least A's least
    eigenvalue on the complement of the ones vector, to within NULL_TOL
    nu; band is band_form(A).

    In r = 0 the region is one point, evaluated once.  Else, once there
    are more than SCREEN_ROUND points, SCREEN_ROUND evenly spaced ones set
    the running minimum m, and every other point is screened first, in
    chunks of SCREEN_ROUND^2 (see _screen, whose factorisation follows the
    exact route): a point that the screen clears lies above m and is
    skipped.  Once more than SCREEN_ROUND points have failed, a round
    evaluates SCREEN_ROUND evenly spaced ones of them exactly, lowers m
    and screens the others again; a round whose screen clears fewer than
    half of them evaluates them all.  A chunk whose screen clears fewer
    than half ends the screening, and every point left is evaluated
    exactly.  The point that attains the minimum never clears, so it is
    always evaluated."""
    if thetas.shape[1] == 0:  # r = 0: the region is one point
        thetas, offset = thetas[:1], offset[:1]
    if len(thetas) <= SCREEN_ROUND:
        return float(np.min(exact(thetas) - offset))

    def evenly(points):
        return points[np.arange(SCREEN_ROUND) * len(points) // SCREEN_ROUND]

    def lowered(least, points):  # least and the exact values at points
        if not len(points):
            return least
        return float(np.min(np.append(
            exact(thetas[points]) - offset[points], least)))

    first = evenly(np.arange(len(thetas)))
    least = lowered(np.inf, first)
    passes = _screen(A, band)
    rest = np.setdiff1d(np.arange(len(thetas)), first)
    pool, chunk = rest[:0], SCREEN_ROUND ** 2
    for lo in range(0, len(rest), chunk):
        points = rest[lo:lo + chunk]
        failed = points[~passes(thetas[points], offset[points], least)]
        if 2 * failed.size > points.size:
            return lowered(least, np.concatenate(
                [pool, failed, rest[lo + chunk:]]))
        pool = np.concatenate([pool, failed])
        while pool.size > SCREEN_ROUND:
            take = evenly(pool)
            least = lowered(least, take)
            points = np.setdiff1d(pool, take)
            pool = points[~passes(thetas[points], offset[points], least)]
            if 2 * pool.size > points.size:
                least, pool = lowered(least, pool), pool[:0]
    return lowered(least, pool)


def _draw(adj: UncertainAdjacency, n_samples: int, seed: int) -> np.ndarray:
    """n_samples points of adj's region, drawn from seed; raises
    CertifierError, before any is drawn, unless 1 <= n_samples <=
    MAX_SAMPLES."""
    if not 1 <= n_samples <= MAX_SAMPLES:
        raise CertifierError(f"n_samples must be between 1 and the limit "
                             f"{MAX_SAMPLES}, got {n_samples}")
    return adj.sample_omega(np.random.default_rng(seed), n_samples)


def sample_lambda2(adj: UncertainAdjacency, n_samples: int = 10000,
                   seed: int = 0) -> Lambda2Samples:
    """Second-smallest Laplacian eigenvalue at sampled region points: a
    purely numerical check, independent of the Gram machinery.  The least
    of them comes from sampled_minimum, behind the Cholesky screen on the
    difference basis; the values at every point are swept by eigenvalue_at
    when first read."""
    thetas = _draw(adj, n_samples, seed)
    L = laplacian(adj)
    band = band_form(L)
    least = sampled_minimum(
        L, band, thetas, np.zeros(len(thetas)),
        lambda batch: eigenvalue_at(L, batch, 2, band))
    return Lambda2Samples(thetas=thetas, min_value=least, L=L, band=band)
