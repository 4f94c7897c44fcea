"""Semidefinite programming with a dense Nesterov-Todd interior point method.

Problems are stated in linear-matrix-inequality form over a flat vector y of
scalar decision variables:

    maximize    b' y
    subject to  S_k(y) = F0_k + sum_i y_i F_{k,i}  is PSD,  k = 1..K

There are no equality constraints: every variable is free and the feasible
set is cut out by the LMIs alone.

Coefficients are given and kept in one format only: the svec column.
svec stacks the upper triangle row by row, off-diagonal entries scaled by
sqrt(2) so that matrix inner products become plain dot products.  `add_lmi`
takes the constant term and one sparse matrix whose column i is
svec(F_{k,i}), and keeps that matrix in canonical CSC form (sorted rows, no
duplicates, no stored zeros), the form the solver reads.

Symmetric matrix variables are layered on top through `add_psd_var`, which
allocates one scalar per svec entry and attaches the identity LMI that
keeps the reassembled matrix PSD: its columns are the unit vectors.

The solver runs a standard primal-dual predictor-corrector iteration with
Nesterov-Todd scaling, an infeasible start, and a Schur complement system
B_ij = sum_k <F_{k,i}, W_k F_{k,j} W_k>, whose upper triangle is assembled
blockwise from sparse constraint columns and factored in place.  A column
with q svec entries is a sum of q symmetric unit pairs, so W F W is a
rank-2q product of rows of W (after Fujisawa, Kojima and Nakata, Math.
Prog. 1997); before the first iteration each block's columns are grouped
by q, and each group is taken through that product in batches of as many
columns as fit in BATCH_BYTES.

`residuals` reads the constraints of a candidate point straight off the
problem data, without solver state: the solver's closing pass and the tests
evaluate a point through it.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.linalg.lapack as lapack
import scipy.sparse as sp

DIVERGENCE_LIMIT = 1e8

# Iterations before `solve` gives up with SdpStatus.MAX_ITER.
MAX_ITERATIONS = 200

# Bytes of float64 temporaries one batched step may hold: a batch of the
# Schur build here, of the multiplier columns and of the sampled sweeps in
# the certifier.  About one core's L2 cache: in a sweep from 256 KiB to
# 4 MiB, on a Xeon core with 2 MiB of L2, the fifty-agent Schur build was
# fastest at 1.5-2 MiB.
BATCH_BYTES = 2 << 20


class SdpStatus(enum.Enum):
    OPTIMAL = "optimal"
    NEAR_OPTIMAL = "near_optimal"
    INFEASIBLE = "infeasible"
    MAX_ITER = "max_iter"
    NUMERICAL_FAILURE = "numerical_failure"


@functools.lru_cache(maxsize=64)
def svec_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the upper triangle, row-major; read-only,
    and kept per n, since every svec, smat and Schur build asks again."""
    iu, ju = np.triu_indices(n)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


@functools.lru_cache(maxsize=64)
def svec_weights(n: int) -> np.ndarray:
    """1 on the diagonal, sqrt(2) off it, in svec order; read-only."""
    iu, ju = svec_indices(n)
    w = np.where(iu == ju, 1.0, math.sqrt(2.0))
    w.flags.writeable = False
    return w


def batch_length(*shape: int) -> int:
    """Items of the given float64 shape that fit in BATCH_BYTES, at least
    one: the length of every batch of the Schur build and the certifier."""
    return max(1, BATCH_BYTES // (8 * math.prod(shape)))


def svec(X: np.ndarray) -> np.ndarray:
    """Scaled upper-triangle vectorization of the last two axes;
    svec(X) . svec(Y) = <X, Y>."""
    n = X.shape[-1]
    iu, ju = svec_indices(n)
    return X[..., iu, ju] * svec_weights(n)


def smat(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of svec over the last axis of v."""
    X = np.zeros(np.shape(v)[:-1] + (n, n))
    iu, ju = svec_indices(n)
    vals = v / svec_weights(n)
    X[..., iu, ju] = vals
    X[..., ju, iu] = vals
    return X


def svec_dim(n: int) -> int:
    return n * (n + 1) // 2


def svec_position(i, j, n: int):
    """Position of entry (i, j), i <= j, in svec of an n-square matrix."""
    return i * n - (i * (i - 1)) // 2 + (j - i)


@dataclass
class MatrixVar:
    """Handle for a symmetric PSD matrix variable stored as svec scalars."""

    size: int
    indices: np.ndarray  # flat variable indices, one per upper-tri entry

    def value(self, y: np.ndarray) -> np.ndarray:
        return smat(np.asarray(y)[self.indices], self.size)


@dataclass
class LmiBlock:
    """One PSD constraint: its constant term and the canonical CSC matrix
    whose column i is svec(F_i), for the variables up to its last column."""

    size: int
    const: np.ndarray
    columns: sp.csc_matrix

    def value(self, y: np.ndarray) -> np.ndarray:
        v = self.columns @ y[:self.columns.shape[1]]
        return self.const + smat(v, self.size)


class SdpProblem:
    """Incrementally built LMI problem; see the module docstring for the form."""

    def __init__(self):
        self.objective: list[float] = []  # b, one coefficient per variable
        self.lmis: list[LmiBlock] = []

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    def add_var(self, obj: float = 0.0) -> int:
        self.objective.append(float(obj))
        return self.n_vars - 1

    def add_psd_var(self, size: int) -> MatrixVar:
        """Symmetric PSD matrix variable of the given size.

        Allocates svec scalars and attaches the identity LMI that constrains
        the reassembled matrix to the PSD cone: column k of that LMI is the
        k-th unit vector."""
        base, m = self.n_vars, svec_dim(size)
        self.objective.extend([0.0] * m)
        self.add_lmi(np.zeros((size, size)),
                     sp.eye(m, base + m, base, format="csc"))
        return MatrixVar(size, np.arange(base, base + m))

    def add_lmi(self, const: np.ndarray, columns) -> int:
        """PSD constraint const + sum_i y_i F_i.

        columns is one sparse matrix with svec_dim(n) rows whose column i
        is svec(F_i); it may have fewer columns than there are variables,
        and the missing ones are zero.  The block keeps a canonical copy."""
        const = np.asarray(const, dtype=float)
        n = const.shape[0]
        if const.shape != (n, n):
            raise ValueError("LMI constant term must be square")
        shape = np.shape(columns)
        if len(shape) != 2 or shape[0] != svec_dim(n):
            raise ValueError(f"LMI columns have shape {shape}, need "
                             f"{svec_dim(n)} rows for LMI size {n}")
        if shape[1] > self.n_vars:
            raise ValueError(f"LMI columns for {shape[1]} variables, "
                             f"the problem has {self.n_vars}")
        cols = sp.csc_matrix(columns, dtype=float, copy=True)
        cols.sum_duplicates()
        cols.eliminate_zeros()
        if not (np.isfinite(const).all() and np.isfinite(cols.data).all()):
            raise ValueError("LMI constant term or columns not finite")
        asym = float(np.max(np.abs(const - const.T))) if const.size else 0.0
        if asym > 1e-12:
            raise ValueError(
                f"LMI constant term not symmetric (max asymmetry {asym:g})")
        # const is halved first: no overflow
        self.lmis.append(LmiBlock(n, 0.5 * const + 0.5 * const.T, cols))
        return len(self.lmis) - 1

    def compile_columns(self) -> list[sp.csc_matrix]:
        """Per-block sparse matrix whose column i is svec(F_{k,i}): the
        stored matrix with empty columns for the variables added after it."""
        out = []
        for blk in self.lmis:
            A = blk.columns
            indptr = np.pad(A.indptr, (0, self.n_vars - A.shape[1]), "edge")
            out.append(sp.csc_matrix((A.data, A.indices, indptr),
                                     shape=(A.shape[0], self.n_vars)))
        return out


@dataclass
class SdpSolution:
    status: SdpStatus
    y: np.ndarray
    objective_value: float
    duality_gap: float
    min_eigenvalues: list[float]
    n_iterations: int
    message: str = ""

    @property
    def ok(self) -> bool:
        """True when the returned point is trustworthy.  NEAR_OPTIMAL means
        every criterion was met within 100x the requested tolerance; it
        shows up on degenerate instances where the last digit of accuracy
        is not attainable in floating point."""
        return self.status in (SdpStatus.OPTIMAL, SdpStatus.NEAR_OPTIMAL)


def residuals(problem: SdpProblem, y: np.ndarray) -> dict:
    """Feasibility of a candidate point, straight from the problem data.

    Returns min eigenvalue per LMI block, each block evaluated by
    `LmiBlock.value` from its stored columns, and the objective value."""
    y = np.asarray(y, dtype=float)
    mins = []
    for blk in problem.lmis:
        M = blk.value(y)
        mins.append(float(np.linalg.eigvalsh(M)[0]) if M.size else 0.0)
    return {
        "min_eigenvalues": mins,
        "objective": float(np.asarray(problem.objective) @ y),
    }


def _presolve(problem: SdpProblem, tol: float) -> SdpSolution | None:
    """The solution of a problem the iteration need not run on, else None.

    A variable with a nonzero objective coefficient in no LMI leaves the
    objective unbounded.  With no variable in any LMI, y = 0 is optimal if
    every constant term is PSD, to tol relative to its largest entry, and
    the problem infeasible if not.  Otherwise a variable in no LMI with a
    zero objective coefficient stays at its starting value 0: its row of
    the Schur complement is zero, which the jitter retry absorbs."""
    used = np.zeros(problem.n_vars, dtype=bool)
    for blk in problem.lmis:
        A = blk.columns
        used[:A.shape[1]] |= np.diff(A.indptr) > 0
    bad = [i for i in np.nonzero(~used)[0] if problem.objective[i] != 0.0]
    if bad:
        return SdpSolution(
            SdpStatus.INFEASIBLE, np.zeros(problem.n_vars), math.inf,
            math.inf, [], 0, f"objective variable y{bad[0]} is "
            "unconstrained; the objective is unbounded")
    if used.any():
        return None
    mins = [float(np.linalg.eigvalsh(blk.const)[0]) if blk.size else 0.0
            for blk in problem.lmis]
    if all(lo > -tol * (1.0 + np.abs(blk.const).max(initial=0.0))
           for lo, blk in zip(mins, problem.lmis)):
        return SdpSolution(SdpStatus.OPTIMAL, np.zeros(problem.n_vars), 0.0,
                           0.0, mins, 0, "no variable appears in an LMI")
    return SdpSolution(SdpStatus.INFEASIBLE, np.zeros(problem.n_vars), 0.0,
                       math.inf, mins, 0, "no variable appears in an LMI, "
                       "and a constant term is not PSD")


class _Scaling:
    """Per-block Nesterov-Todd scaling data."""

    __slots__ = ("lam", "R", "Rinv", "Winv")

    def __init__(self, S: np.ndarray, Z: np.ndarray):
        # the one finiteness check of the iterate: the triangular solves
        # here and in _max_step skip their own
        if not (np.isfinite(S).all() and np.isfinite(Z).all()):
            raise np.linalg.LinAlgError("iterate not finite")
        Ls = np.linalg.cholesky(S)
        G = Ls.T @ Z @ Ls
        lam2, Q = np.linalg.eigh(0.5 * (G + G.T))
        lam2 = np.maximum(lam2, 1e-300)
        lam = np.sqrt(lam2)
        lam_q = lam2 ** 0.25
        self.lam = lam
        self.R = Ls @ Q / lam_q[None, :]
        Linv = sla.solve_triangular(Ls, np.eye(Ls.shape[0]), lower=True,
                                    check_finite=False)
        self.Rinv = lam_q[:, None] * (Q.T @ Linv)
        self.Winv = self.Rinv.T @ self.Rinv


def _max_step(S: np.ndarray, dS: np.ndarray) -> float:
    """Largest t with S + t dS still PSD, via a factorization of S, an
    iterate whose finiteness _Scaling has checked."""
    if not np.isfinite(dS).all():
        raise np.linalg.LinAlgError("step direction not finite")
    try:
        Ls = np.linalg.cholesky(S)
        M = sla.solve_triangular(Ls, dS, lower=True, check_finite=False)
        M = sla.solve_triangular(Ls, M.T, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        # roundoff can push an extreme iterate just off the cone; clamp
        # the spectrum at a tiny positive floor instead of giving up
        lam, Q = np.linalg.eigh(0.5 * (S + S.T))
        root = np.sqrt(np.maximum(lam, 1e-15 * max(float(lam[-1]), 1e-300)))
        B = Q / root[None, :]
        M = B.T @ dS @ B
    lo = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
    if lo >= -1e-14:
        return np.inf
    return -1.0 / lo


def _index(idx: np.ndarray):
    """idx (ascending, no repeats) as a slice when it is a contiguous
    range, so that B is read and written through a view instead of a
    gather and a scatter."""
    if len(idx) and idx[-1] - idx[0] + 1 == len(idx):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _submatrix(rows: np.ndarray, cols: np.ndarray):
    """Index of the rows-by-cols submatrix of B."""
    r, c = _index(rows), _index(cols)
    if isinstance(r, slice) or isinstance(c, slice):
        return r, c
    return np.ix_(r, c)


@dataclass
class _BlockColumns:
    """One LMI block's columns, grouped once per solve by `_split_columns`.

    A batch holds, for its C columns of q svec entries each, the rows of
    W that make up W F W as a (C, n, 2q) by (C, 2q, n) product, the
    coefficients of the left factor, and the rows of A' diag(w) of the
    block's nonzero columns up to the batch's last one."""

    n: int
    batches: list[tuple]  # (target, At, left, right, coeffs)


def _split_columns(A: sp.csc_matrix, n: int) -> _BlockColumns:
    """Group the nonzero columns by their svec entry count q, in batches
    of `batch_length` columns, each item the larger of W F W and its
    2q rows of W.

    A column with q svec entries is F = sum of q terms c (e_a e_b' +
    e_b e_a'), so W F W = U V' + V U' with U, V the n-by-q columns of W
    it touches (scaled by c): 4 q n^2 flops.  A batch fills B down to its
    diagonal: the rows of At up to its last column, a prefix of At."""
    counts = np.diff(A.indptr)
    cols = np.flatnonzero(counts)
    iu, ju = svec_indices(n)
    w = svec_weights(n)
    # the svec weights go into A', so svec(Y) is a plain gather of Y
    At = (sp.diags(w) @ A).T.tocsr()[cols]
    batches = []
    for q in np.unique(counts[cols]):
        group = cols[counts[cols] == q]
        length = batch_length(max(2 * int(q), n), n)
        for start in range(0, len(group), length):
            cc = group[start:start + length]
            stop = int(np.searchsorted(cols, cc[-1], side="right"))
            span = np.stack([np.arange(A.indptr[i], A.indptr[i + 1])
                             for i in cc])
            pos = A.indices[span]
            a, b = iu[pos], ju[pos]
            coef = 0.5 * A.data[span] * w[pos]
            # At's leading rows on slices of its arrays: At[:stop] would
            # copy them for every batch (scipy still copies short ones)
            end = At.indptr[stop]
            prefix = sp.csr_matrix((At.data[:end], At.indices[:end],
                                    At.indptr[:stop + 1]),
                                   shape=(stop, At.shape[1]))
            batches.append((_submatrix(cols[:stop], cc), prefix,
                            np.concatenate([a, b], axis=1),
                            np.concatenate([b, a], axis=1),
                            np.concatenate([coef, coef], axis=1)))
    return _BlockColumns(n=n, batches=batches)


def _schur_matrix(blocks: list[_BlockColumns], scalings,
                  n_vars: int) -> np.ndarray:
    """B_ij = sum over blocks of <F_i, W F_j W>, with W = Winv, on and
    above the diagonal; what lies below it is not B.

    Each batch forms W F W as a product of rows of W and fills its
    columns of B in the rows up to its last column, through A'."""
    B = np.zeros((n_vars, n_vars))
    for blk, sc in zip(blocks, scalings):
        n = blk.n
        iu, ju = svec_indices(n)
        triu = iu * n + ju
        Winv = sc.Winv
        for target, At, left, right, coef in blk.batches:
            Y = np.matmul((Winv[left] * coef[:, :, None]).transpose(0, 2, 1),
                          Winv[right]).reshape(len(left), -1)
            B[target] += At @ Y.T[triu]
    return B


class _KktSolver:
    """Cholesky factor of the Schur complement B = build(), upper triangle
    only, factored in place as the lower triangle of B' (Fortran order);
    retried with a growing diagonal jitter on a new B() when singular."""

    def __init__(self, build):
        B = build()
        if not np.isfinite(B).all():
            raise np.linalg.LinAlgError("Schur complement is not finite")
        scale = max(1.0, float(np.max(np.abs(np.diag(B)))))
        jitter = 0.0
        for _ in range(8):
            if jitter:
                self.factor = B = None  # the old B goes before the new one
                B = build()
                B.flat[::B.shape[0] + 1] += jitter
            self.factor, info = lapack.dpotrf(B.T, lower=1, clean=0,
                                              overwrite_a=1)
            if info == 0:
                return
            jitter = scale * 1e-12 if jitter == 0.0 else jitter * 100.0
        raise np.linalg.LinAlgError("Schur complement not factorizable")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        dy, info = lapack.dpotrs(self.factor, rhs, lower=1)
        if info or not np.isfinite(dy).all():  # so too if rhs is not
            raise np.linalg.LinAlgError("KKT direction not finite")
        return dy


def solve(problem: SdpProblem, tol: float = 1e-8,
          callback=None) -> SdpSolution:
    """Run the predictor-corrector interior point method, for at most
    MAX_ITERATIONS iterations.

    tol bounds the relative duality gap and the scaled primal and dual
    residuals at termination.  `callback`, when given, is invoked once per
    iteration with a small stats dict."""
    presolved = _presolve(problem, tol)
    if presolved is not None:
        return presolved

    n_vars = problem.n_vars
    b = np.array(problem.objective)
    A_list = problem.compile_columns()
    A_T = [A.T for A in A_list]
    sizes = [blk.size for blk in problem.lmis]
    consts = [blk.const for blk in problem.lmis]
    blocks = [_split_columns(A, n) for A, n in zip(A_list, sizes)]
    n_tot = sum(sizes)

    # Infeasible start: y = 0, identity-scaled S and Z.  The spectral norm
    # of a finite constant term can overflow, and S would not be finite.
    # _presolve leaves at least one variable, so b and y are not empty.
    y = np.zeros(n_vars)
    c_norms = [float(np.linalg.norm(c, 2)) for c in consts]
    if not np.isfinite(c_norms).all():
        return SdpSolution(SdpStatus.NUMERICAL_FAILURE, y, 0.0, math.inf,
                           [], 0, "the spectral norm of a constant term "
                           "overflows")
    S = [max(1.0, cn) * np.eye(n) for cn, n in zip(c_norms, sizes)]
    Z = [np.eye(n) for n in sizes]

    b_scale = 1.0 + float(np.max(np.abs(b)))
    msg = ""
    status = SdpStatus.MAX_ITER
    it = 0
    # Best iterate seen, by worst-of-three merit.  On degenerate problems
    # the dual residual can deteriorate after the gap bottoms out; keeping
    # the best point lets a stalled run still return its honest optimum.
    best_merit = math.inf
    best_point = None
    since_best = 0

    for it in range(1, MAX_ITERATIONS + 1):
        # every residual norm, factorization, solve and step of the
        # iteration: a singular or non-finite one ends the run with a
        # status, not an exception
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                res_d = [blk.value(y) - Sk
                         for blk, Sk in zip(problem.lmis, S)]
                r_g = -b
                for At, Zk in zip(A_T, Z):
                    r_g = r_g - At @ svec(Zk)
                r_g = np.asarray(r_g).ravel()
                gap = sum(float(np.sum(Sk * Zk)) for Sk, Zk in zip(S, Z))
                pobj = float(b @ y)
                dobj = sum(float(np.sum(F0 * Zk))
                           for F0, Zk in zip(consts, Z))
                pinf = max(np.linalg.norm(rd, 2) / (1.0 + cn)
                           for rd, cn in zip(res_d, c_norms))
                dinf = np.linalg.norm(r_g, np.inf) / b_scale
                relgap = gap / (1.0 + abs(pobj) + abs(dobj))

            if callback is not None:
                callback({"iter": it, "gap": gap, "pinf": pinf, "dinf": dinf,
                          "pobj": pobj, "dobj": dobj})

            if not np.isfinite([gap, pobj, dobj, pinf, dinf]).all():
                raise np.linalg.LinAlgError("residuals or objectives are "
                                            "not finite")
            merit = max(relgap, pinf, dinf)
            if merit < best_merit:
                best_merit = merit
                best_point = (y.copy(), [Sk.copy() for Sk in S],
                              [Zk.copy() for Zk in Z])
                since_best = 0
            else:
                since_best += 1

            if relgap < tol and pinf < tol and dinf < tol:
                status = SdpStatus.OPTIMAL
                break
            if since_best >= 10:
                status = SdpStatus.NUMERICAL_FAILURE
                msg = "no merit progress over 10 iterations"
                break

            diverged = max(np.linalg.norm(y, np.inf),
                           max(np.linalg.norm(Zk, np.inf) for Zk in Z))
            if diverged > DIVERGENCE_LIMIT:
                status = SdpStatus.INFEASIBLE
                msg = ("iterates diverged; the problem is infeasible or "
                       "unbounded")
                break

            def direction(N_list):
                rhs_y = -r_g.copy()
                for At, sc, Nk, rd in zip(A_T, scalings, N_list, res_d):
                    rhs_y += At @ svec(Nk - sc.Winv @ rd @ sc.Winv)
                dy = kkt.solve(np.asarray(rhs_y).ravel())
                dS, dZ = [], []
                for k, (A, sc, rd) in enumerate(zip(A_list, scalings, res_d)):
                    dSk = smat(np.asarray(A @ dy).ravel(), sizes[k]) + rd
                    dZk = N_list[k] - sc.Winv @ dSk @ sc.Winv
                    dS.append(dSk)
                    dZ.append(0.5 * (dZk + dZk.T))
                return dy, dS, dZ

            scalings = [_Scaling(Sk, Zk) for Sk, Zk in zip(S, Z)]
            # the previous iteration's factor goes before the next Schur
            # matrix is built
            kkt = None
            kkt = _KktSolver(lambda: _schur_matrix(blocks, scalings, n_vars))

            # Predictor: drive straight at complementarity zero.
            N_aff = [-Zk for Zk in Z]
            dy_a, dS_a, dZ_a = direction(N_aff)

            ap = min([1.0] + [_max_step(S[k], dS_a[k])
                              for k in range(len(S))])
            ad = min([1.0] + [_max_step(Z[k], dZ_a[k])
                              for k in range(len(Z))])
            gap_aff = sum(float(np.sum((S[k] + ap * dS_a[k]) *
                                       (Z[k] + ad * dZ_a[k])))
                          for k in range(len(S)))
            mu = gap / n_tot
            sigma = min(1.0, max(0.0, (max(gap_aff, 0.0) / gap) ** 3))

            # Corrector with the Mehrotra second order term.
            N_cmb = []
            for k, sc in enumerate(scalings):
                etaS = sc.Rinv @ dS_a[k] @ sc.Rinv.T
                etaZ = sc.R.T @ dZ_a[k] @ sc.R
                cross = etaS @ etaZ
                D = sigma * mu * np.eye(sizes[k]) - np.diag(sc.lam ** 2) \
                    - 0.5 * (cross + cross.T)
                denom = sc.lam[:, None] + sc.lam[None, :]
                U = 2.0 * D / denom
                N_cmb.append(sc.Rinv.T @ U @ sc.Rinv)
            dy, dS, dZ = direction(N_cmb)
            ap = min(1.0, 0.99 * min([np.inf] + [_max_step(S[k], dS[k])
                                                 for k in range(len(S))]))
            ad = min(1.0, 0.99 * min([np.inf] + [_max_step(Z[k], dZ[k])
                                                 for k in range(len(Z))]))
        except np.linalg.LinAlgError as err:
            status = SdpStatus.NUMERICAL_FAILURE
            msg = (f"residual norm, scaling, factorization or KKT solve "
                   f"failed: {err}")
            break

        if ap < 1e-10 and ad < 1e-10:
            status = SdpStatus.NUMERICAL_FAILURE
            msg = "step length collapsed"
            break

        y = y + ap * dy
        for k in range(len(S)):
            S[k] = S[k] + ap * dS[k]
            Z[k] = Z[k] + ad * dZ[k]

    if status is not SdpStatus.OPTIMAL and best_point is not None \
            and best_merit <= 100.0 * tol:
        y, S, Z = best_point
        status = SdpStatus.NEAR_OPTIMAL
        msg = (f"stopped at the best iterate; criteria met within "
               f"{best_merit / tol:.1f}x tol")
    closing = residuals(problem, y)
    with np.errstate(over="ignore", invalid="ignore"):
        gap = sum(float(np.sum(Sk * Zk)) for Sk, Zk in zip(S, Z))
    if status is SdpStatus.MAX_ITER:
        msg = f"no convergence within {MAX_ITERATIONS} iterations"
    return SdpSolution(status, y, closing["objective"], gap,
                       closing["min_eigenvalues"], it, msg)
