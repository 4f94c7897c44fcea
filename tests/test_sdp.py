"""Interior point solver tests against analytically solvable instances.

The main oracle here is a planted-solution generator: it builds a problem
around a hand-constructed primal-dual pair with zero duality gap, so the
optimal value is known exactly before the solver runs."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import oracles
from robustform import sdp
from robustform.certifier import assemble
from robustform.scenario import ScenarioSpec, builtin_path
from robustform.sdp import (SdpProblem, SdpStatus, residuals, smat, solve,
                            svec, svec_dim)


def sym(rng, n, scale=1.0):
    M = rng.normal(size=(n, n))
    return scale * (M + M.T) / 2.0


def planted_problem(seed, sizes=(5, 4), m=6, rank_split=None):
    """Problem with a known optimal value.

    For each block a complementary pair S* = Q1 D1 Q1', Z* = Q2 D2 Q2' is
    drawn with [Q1 Q2] orthogonal, so S* Z* = 0 and both are PSD.  The
    constant terms are back-solved from a drawn y*, and the objective from
    Z* via the stationarity condition, which makes (y*, S*) and Z* a primal
    dual pair with zero gap.  Returns (problem, optimal value)."""
    rng = np.random.default_rng(seed)
    y_star = rng.normal(size=m)
    b = np.zeros(m)
    blocks = []
    for bi, n in enumerate(sizes):
        split = rank_split[bi] if rank_split else n // 2 + 1
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        d1 = rng.uniform(0.5, 2.0, size=split)
        d2 = rng.uniform(0.5, 2.0, size=n - split)
        S_star = Q[:, :split] @ np.diag(d1) @ Q[:, :split].T
        Z_star = Q[:, split:] @ np.diag(d2) @ Q[:, split:].T
        F = [sym(rng, n) for _ in range(m)]
        F0 = S_star - sum(y_star[i] * F[i] for i in range(m))
        blocks.append((F0, F))
        for i in range(m):
            b[i] -= float(np.sum(F[i] * Z_star))
    prob = SdpProblem()
    idx = [prob.add_var(obj=b[i]) for i in range(m)]
    for F0, F in blocks:
        prob.add_lmi(F0, oracles.lmi_columns(
            {idx[i]: F[i] for i in range(m)}, len(F0)))
    return prob, float(b @ y_star)


class TestSvec:

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_roundtrip(self, n):
        rng = np.random.default_rng(n)
        X = sym(rng, n)
        assert np.allclose(smat(svec(X), n), X, atol=1e-14)

    def test_inner_product(self):
        rng = np.random.default_rng(0)
        X, Y = sym(rng, 6), sym(rng, 6)
        assert svec(X) @ svec(Y) == pytest.approx(np.sum(X * Y), rel=1e-13)

    def test_dim(self):
        assert [svec_dim(n) for n in (1, 2, 3, 10)] == [1, 3, 6, 55]

    def test_batch_axes(self):
        # leading axes are a batch: each element as if taken on its own
        rng = np.random.default_rng(3)
        X = np.array([[sym(rng, 4) for _ in range(3)] for _ in range(2)])
        V = svec(X)
        assert V.shape == (2, 3, 10)
        back = smat(V, 4)
        for a in range(2):
            for b in range(3):
                np.testing.assert_array_equal(V[a, b], svec(X[a, b]))
                np.testing.assert_array_equal(back[a, b], smat(V[a, b], 4))


class TestAnalytic:

    def test_min_eigenvalue_of_diagonal(self):
        # max c with diag(2, 3) - c I PSD; the answer is the smallest entry.
        prob = SdpProblem()
        c = prob.add_var(obj=1.0)
        prob.add_lmi(np.diag([2.0, 3.0]),
                     oracles.lmi_columns({c: -np.eye(2)}, 2))
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(2.0, abs=1e-6)

    def test_one_by_one_blocks(self):
        # max y with 3 - y >= 0 as a 1x1 LMI.
        prob = SdpProblem()
        yv = prob.add_var(obj=1.0)
        prob.add_lmi(np.array([[3.0]]),
                     oracles.lmi_columns({yv: np.array([[-1.0]])}, 1))
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(3.0, abs=1e-7)

    def test_correlation_corner(self):
        # max y with [[1, y], [y, 1]] PSD; optimum at y = 1.
        prob = SdpProblem()
        yv = prob.add_var(obj=1.0)
        off = np.array([[0.0, 1.0], [1.0, 0.0]])
        prob.add_lmi(np.eye(2), oracles.lmi_columns({yv: off}, 2))
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-6)

    def test_largest_eigenvalue_via_trace_one(self):
        # max <C, X> over PSD X with trace X = 1 is the top eigenvalue of C;
        # stated here as its dual, max -t with t I - C PSD, whose LMI
        # multiplier Z is that X: PSD with trace one.
        rng = np.random.default_rng(11)
        C = sym(rng, 5, scale=2.0)
        prob = SdpProblem()
        t = prob.add_var(obj=-1.0)
        prob.add_lmi(-C, oracles.lmi_columns({t: np.eye(5)}, 5))
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL
        target = float(np.linalg.eigvalsh(C)[-1])
        assert -sol.objective_value == pytest.approx(target, abs=1e-6)
        assert sol.y[t] == pytest.approx(target, abs=1e-6)
        assert sol.min_eigenvalues[0] > -1e-8


class TestPlanted:

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_recovers_known_optimum(self, seed):
        prob, opt = planted_problem(seed)
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(opt, abs=2e-6)
        assert min(sol.min_eigenvalues) > -1e-6
        assert sol.duality_gap < 1e-5

    def test_single_block(self):
        prob, opt = planted_problem(7, sizes=(6,), m=4)
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(opt, abs=2e-6)

    def test_chunking_invariant(self, monkeypatch):
        # one column per batch of the Schur build and the default budget
        # run the same iterates, bit for bit
        prob, _ = planted_problem(5)
        default = solve(prob)
        monkeypatch.setattr(sdp, "BATCH_BYTES", 1)
        single = solve(prob)
        assert default.status is single.status is SdpStatus.OPTIMAL
        assert default.n_iterations == single.n_iterations
        np.testing.assert_array_equal(default.y, single.y)

    def test_scaling_equivariance(self):
        # Multiplying every data matrix and the objective by 10 scales the
        # optimal value by 10 without changing the feasible set of y.
        prob1, opt = planted_problem(9, sizes=(4,), m=3)
        prob2 = SdpProblem()
        for i in range(3):
            prob2.add_var(obj=10.0 * prob1.objective[i])
        prob2.add_lmi(10.0 * prob1.lmis[0].const,
                      10.0 * prob1.compile_columns()[0])
        s1 = solve(prob1)
        s2 = solve(prob2)
        assert s2.objective_value == pytest.approx(10.0 * s1.objective_value,
                                                   rel=1e-5)

    def test_tighter_tol_smaller_gap(self):
        prob, _ = planted_problem(2)
        loose = solve(prob, tol=1e-4)
        tight = solve(prob, tol=1e-10)
        assert tight.status is SdpStatus.OPTIMAL
        assert tight.duality_gap <= loose.duality_gap + 1e-12


class TestDegenerate:

    def test_infeasible_pair(self):
        # y >= 0 and -1 - y >= 0 cannot both hold.
        prob = SdpProblem()
        yv = prob.add_var(obj=0.0)
        prob.add_lmi(np.zeros((1, 1)), oracles.lmi_columns({yv: np.eye(1)}, 1))
        prob.add_lmi(np.array([[-1.0]]),
                     oracles.lmi_columns({yv: -np.eye(1)}, 1))
        sol = solve(prob)
        assert sol.status is SdpStatus.INFEASIBLE

    def test_unbounded_ray(self):
        # max y with y >= 0 only: no upper bound, reported as infeasible
        # or unbounded by dual divergence.
        prob = SdpProblem()
        yv = prob.add_var(obj=1.0)
        prob.add_lmi(np.zeros((1, 1)), oracles.lmi_columns({yv: np.eye(1)}, 1))
        sol = solve(prob)
        assert sol.status is SdpStatus.INFEASIBLE

    def test_presolve_dangling_objective_var(self):
        prob = SdpProblem()
        prob.add_var(obj=1.0)
        c = prob.add_var(obj=1.0)
        prob.add_lmi(np.diag([2.0]), oracles.lmi_columns({c: -np.eye(1)}, 1))
        sol = solve(prob)
        assert sol.status is SdpStatus.INFEASIBLE
        assert "variable y0" in sol.message and "unbounded" in sol.message

    def test_presolve_dangling_unused_var(self):
        # A variable in no constraint with no objective weight is harmless.
        prob = SdpProblem()
        prob.add_var()
        c = prob.add_var(obj=1.0)
        prob.add_lmi(np.diag([2.0, 5.0]),
                     oracles.lmi_columns({c: -np.eye(2)}, 2))
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(2.0, abs=1e-6)
        assert sol.y[0] == pytest.approx(0.0, abs=1e-6)

    def test_empty_problem_is_optimal(self):
        sol = solve(SdpProblem())
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.y.shape == (0,) and sol.n_iterations == 0

    def test_variable_in_no_lmi_is_optimal_at_zero(self):
        prob = SdpProblem()
        prob.add_var()
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.y.tolist() == [0.0] and sol.objective_value == 0.0

    @pytest.mark.parametrize("const, status", [
        (np.eye(2), SdpStatus.OPTIMAL),
        (np.diag([1.0, -1.0]), SdpStatus.INFEASIBLE)], ids=["psd", "not_psd"])
    def test_lmi_without_variables_is_decided_by_its_constant(self, const,
                                                              status):
        prob = SdpProblem()
        prob.add_lmi(const, sp.csc_array((3, 0)))
        sol = solve(prob)
        assert sol.status is status
        assert sol.y.shape == (0,)
        assert sol.min_eigenvalues == [float(np.linalg.eigvalsh(const)[0])]

    def test_failed_factorization_returns_a_status(self, monkeypatch):
        # a Schur complement that not even the jitter retry can factor ends
        # the run with a status instead of an exception
        def unfactorizable(build):
            raise np.linalg.LinAlgError("Schur complement not factorizable")

        monkeypatch.setattr(sdp, "_KktSolver", unfactorizable)
        prob = SdpProblem()
        c = prob.add_var(obj=1.0)
        prob.add_lmi(np.diag([2.0, 5.0]),
                     oracles.lmi_columns({c: -np.eye(2)}, 2))
        sol = solve(prob)
        assert sol.status is SdpStatus.NUMERICAL_FAILURE
        assert "failed" in sol.message

    @pytest.mark.parametrize("schur, reason", [
        (lambda n: np.full((n, n), np.nan), "Schur complement is not finite"),
        # dy = rhs / 1e-310 overflows
        (lambda n: np.diag(np.full(n, 1e-310)), "KKT direction not finite"),
    ], ids=["nan_schur", "overflowing_direction"])
    def test_non_finite_schur_or_direction_returns_a_status(
            self, monkeypatch, schur, reason):
        monkeypatch.setattr(sdp, "_schur_matrix",
                            lambda blocks, scalings, n_vars: schur(n_vars))
        sol = solve(one_variable_problem(np.diag([2.0, 5.0])))
        assert sol.status is SdpStatus.NUMERICAL_FAILURE
        assert reason in sol.message

    def test_non_finite_right_hand_side_returns_a_status(self, monkeypatch):
        # W ~ 1e308 makes W R W overflow in the right-hand side, while B
        # is a finite stand-in.  One entry keeps the gap, 1e308, finite:
        # two would overflow it and end the run before any direction
        monkeypatch.setattr(sdp, "_schur_matrix",
                            lambda blocks, scalings, n_vars: np.eye(n_vars))
        with np.errstate(all="ignore"):
            sol = solve(one_variable_problem(np.diag([1e308])))
        assert sol.status is SdpStatus.NUMERICAL_FAILURE
        assert "KKT direction not finite" in sol.message

    def test_overflowing_gap_ends_the_run_without_a_warning(self):
        # S = 1e308 I and Z = I overflow the gap <S, Z> to inf, which used
        # to warn "overflow encountered in reduce" (an error under the
        # suite's filterwarnings) and run on with a nan merit
        sol = solve(one_variable_problem(np.diag([1e308, 1e308])))
        assert sol.status is SdpStatus.NUMERICAL_FAILURE
        assert sol.message.endswith("residuals or objectives are not finite")
        assert sol.n_iterations == 1

    def test_constant_whose_norm_overflows_returns_a_status(self):
        # a PSD constant with entries 1e308 has spectral norm 2e308, which
        # overflows; the start would scale S by it.  y = 0 is optimal, but
        # the solver ends with a status, without an exception or warning
        prob = SdpProblem()
        prob.add_var(obj=1.0)
        prob.add_lmi(np.full((2, 2), 1e308),
                     sp.csc_array(-sdp.svec(np.eye(2))[:, None]))
        sol = solve(prob)
        assert sol.status is SdpStatus.NUMERICAL_FAILURE
        assert "overflows" in sol.message
        assert sol.y.tolist() == [0.0]

    def test_largest_finite_constant_returns_a_status(self):
        const = np.diag([1e308, 1e308])
        prob = one_variable_problem(const)
        np.testing.assert_array_equal(prob.lmis[0].const, const)
        with np.errstate(all="ignore"):
            sol = solve(prob)
        assert sol.status is SdpStatus.NUMERICAL_FAILURE


def one_variable_problem(const):
    """max c subject to const - c I PSD."""
    prob = SdpProblem()
    c = prob.add_var(obj=1.0)
    prob.add_lmi(const, oracles.lmi_columns({c: -np.eye(len(const))},
                                            len(const)))
    return prob


class TestValidationAndResiduals:

    def test_rejects_asymmetric_const(self):
        prob = SdpProblem()
        prob.add_var()
        with pytest.raises(ValueError):
            prob.add_lmi(np.array([[0.0, 1.0], [0.0, 0.0]]),
                         oracles.lmi_columns({}, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["const", "column"])
    def test_rejects_non_finite_data(self, where, bad):
        prob = SdpProblem()
        v = prob.add_var()
        const, F = np.eye(2), np.eye(2)
        (const if where == "const" else F)[0, 0] = bad
        with pytest.raises(ValueError, match="not finite"):
            prob.add_lmi(const, oracles.lmi_columns({v: F}, 2))

    def test_rejects_wrong_shape_coeff(self):
        # columns for a 3-square LMI have 6 rows, a 2-square one needs 3
        prob = SdpProblem()
        v = prob.add_var()
        with pytest.raises(ValueError):
            prob.add_lmi(np.eye(2), oracles.lmi_columns({v: np.eye(3)}, 3))
        # a 1-D array of the right length is not a column matrix
        with pytest.raises(ValueError, match="shape"):
            prob.add_lmi(np.eye(2), sp.coo_array(np.ones(3)))

    def test_rejects_unknown_index(self):
        prob = SdpProblem()
        prob.add_var()
        with pytest.raises(ValueError):
            prob.add_lmi(np.eye(2), oracles.lmi_columns({5: np.eye(2)}, 2))

    def test_columns_are_stored_canonical_and_padded(self):
        # column 0 (c's -I) with unsorted rows and an explicit zero, column
        # 1 as a duplicated entry, and no column for the third variable,
        # in read-only arrays like the cached null basis
        def problem(data, indices, indptr):
            arrays = [np.array(a) for a in (data, indices, indptr)]
            for a in arrays:
                a.flags.writeable = False
            prob = SdpProblem()
            prob.add_var(obj=1.0)
            prob.add_var()
            t = prob.add_var(obj=-1.0)
            prob.add_lmi(np.diag([2.0, 5.0]),
                         sp.csc_matrix(tuple(arrays), shape=(3, 2)))
            prob.add_lmi(-np.eye(1), oracles.lmi_columns({t: np.eye(1)}, 1))
            return prob

        messy = problem([-1.0, 0.0, -1.0, 0.25, 0.25], [2, 1, 0, 1, 1],
                        [0, 3, 5])
        twin = problem([-1.0, -1.0, 0.5], [0, 2, 1], [0, 2, 3])
        for prob in (messy, twin):
            A = prob.lmis[0].columns
            assert A.shape == (3, 2)
            np.testing.assert_array_equal(A.indptr, [0, 2, 3])
            np.testing.assert_array_equal(A.indices, [0, 2, 1])
            np.testing.assert_array_equal(A.data, [-1.0, -1.0, 0.5])
            padded = prob.compile_columns()[0]
            assert padded.shape == (3, 3)
            np.testing.assert_array_equal(padded.indptr, [0, 2, 3, 3])
        a, b = solve(messy), solve(twin)
        assert a.status is SdpStatus.OPTIMAL
        np.testing.assert_array_equal(a.y, b.y)

    def test_residuals_report(self):
        prob = SdpProblem()
        c = prob.add_var(obj=1.0)
        prob.add_lmi(np.diag([2.0, 3.0]),
                     oracles.lmi_columns({c: -np.eye(2)}, 2))
        prob.add_lmi(np.array([[1.0]]),
                     oracles.lmi_columns({c: np.array([[2.0]])}, 1))
        rep = residuals(prob, np.array([1.0]))
        assert rep["min_eigenvalues"][0] == pytest.approx(1.0, abs=1e-12)
        assert rep["min_eigenvalues"][1] == pytest.approx(3.0, abs=1e-12)
        assert rep["objective"] == pytest.approx(1.0, abs=1e-12)


def random_spd(rng, n):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q @ np.diag(rng.uniform(0.1, 3.0, size=n)) @ Q.T


def relative_error(B, ref):
    return float(np.max(np.abs(B - ref)) / np.max(np.abs(ref)))


def certification_problem(name):
    adj = ScenarioSpec.load(builtin_path(name)).adjacency
    return assemble(adj).problem


SCHUR_MATRIX = sdp._schur_matrix


def solve_checked(monkeypatch, prob, use_oracle=False):
    """solve() with every Schur matrix compared to the generic oracle's on
    the upper triangle, which the factorization reads; returns the
    solution and the relative errors, one per iteration.  use_oracle makes
    the solver run on the oracle's matrices."""
    A_list = prob.compile_columns()
    sizes = [blk.size for blk in prob.lmis]
    errors = []

    def checked(blocks, scalings, n_vars):
        B = SCHUR_MATRIX(blocks, scalings, n_vars)
        ref = oracles.schur_matrix(A_list, scalings, sizes, n_vars)
        errors.append(relative_error(np.triu(B), np.triu(ref)))
        return ref if use_oracle else B

    monkeypatch.setattr(sdp, "_schur_matrix", checked)
    return solve(prob), errors


class TestSchurMatrix:

    def test_six_agent_every_iterate_matches_oracle(self, monkeypatch):
        prob = certification_problem("six_agent")
        sol, errors = solve_checked(monkeypatch, prob)
        ref, _ = solve_checked(monkeypatch, prob, use_oracle=True)
        assert len(errors) == sol.n_iterations - 1
        assert max(errors) < 1e-10
        # the iteration count is not compared: this problem stalls near
        # its optimum, and rounding at 1e-16 decides when the run stops
        assert sol.ok and ref.ok
        assert sol.objective_value == pytest.approx(ref.objective_value,
                                                    abs=1e-8)

    def test_fifty_agent_iterate_matches_oracle(self, monkeypatch):
        # columns of one entry (both identity cones), of two (the main
        # block's R and delta columns) and of n (c's -I).  W is a multiple
        # of I at the start; the second iterate has a general W.
        prob = certification_problem("fifty_agent")
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
        _, errors = solve_checked(monkeypatch, prob)
        assert len(errors) == 2 and max(errors) < 1e-10

    def test_fifty_agent_batches_leave_every_bit(self, monkeypatch):
        # the upper triangle, which the factorization reads, is the same
        # with one column per batch as at the default budget, on the
        # first iterate (W a multiple of I) and the second (a general W)
        prob = certification_problem("fifty_agent")
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
        A_list = prob.compile_columns()
        sizes = [blk.size for blk in prob.lmis]
        with monkeypatch.context() as m:
            m.setattr(sdp, "BATCH_BYTES", 1)
            single = [sdp._split_columns(A, n)
                      for A, n in zip(A_list, sizes)]
        equal = []

        def both(blocks, scalings, n_vars):
            assert len(blocks[-1].batches) < len(single[-1].batches)
            B = SCHUR_MATRIX(blocks, scalings, n_vars)
            B1 = SCHUR_MATRIX(single, scalings, n_vars)
            equal.append(all(np.array_equal(B[i, i:], B1[i, i:])
                             for i in range(n_vars)))
            return B

        monkeypatch.setattr(sdp, "_schur_matrix", both)
        solve(prob)
        assert equal == [True, True]

    def test_fifty_agent_build_holds_b_and_a_few_batches(self):
        # the traced peak of one Schur build is B itself plus the
        # temporaries of one batch at a time; 256 columns per batch held
        # B + 41 MB
        prob = certification_problem("fifty_agent")
        A_list = prob.compile_columns()
        sizes = [blk.size for blk in prob.lmis]
        rng = np.random.default_rng(0)
        scalings = [sdp._Scaling(random_spd(rng, n), random_spd(rng, n))
                    for n in sizes]
        blocks = [sdp._split_columns(A, n) for A, n in zip(A_list, sizes)]
        tracemalloc.start()
        try:
            B = sdp._schur_matrix(blocks, scalings, prob.n_vars)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= B.nbytes + 4 * sdp.BATCH_BYTES

    @pytest.mark.parametrize("words", [2, 512])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_blocks_match_oracle(self, monkeypatch, seed, words):
        # per block and variable: no entry, one diagonal entry, a few
        # entries, +-I (q = n entries, the shape of c's column) or a full
        # symmetric matrix; one variable is in no block.  A budget of 2
        # float64 words takes one column per batch, one of 512 a few.
        monkeypatch.setattr(sdp, "BATCH_BYTES", 8 * words)
        rng = np.random.default_rng(seed)
        prob = SdpProblem()
        idx = [prob.add_var() for _ in range(14)]
        for n in (7, 1, 4, 1, 9):
            coeffs = {}
            for i in idx[:-1]:
                kind = rng.integers(5)
                if kind == 0:
                    continue
                F = np.zeros((n, n))
                if kind == 1:
                    k = rng.integers(n)
                    F[k, k] = rng.normal()
                elif kind == 2:
                    for _ in range(rng.integers(1, 4)):
                        a, b = rng.integers(n, size=2)
                        F[a, b] = F[b, a] = rng.normal()
                elif kind == 3:
                    F = rng.choice([-1.0, 1.0]) * np.eye(n)
                else:
                    F = sym(rng, n)
                coeffs[i] = F
            prob.add_lmi(np.zeros((n, n)), oracles.lmi_columns(coeffs, n))
        A_list = prob.compile_columns()
        sizes = [blk.size for blk in prob.lmis]
        scalings = [sdp._Scaling(random_spd(rng, n), random_spd(rng, n))
                    for n in sizes]
        blocks = [sdp._split_columns(A, n) for A, n in zip(A_list, sizes)]
        B = sdp._schur_matrix(blocks, scalings, prob.n_vars)
        ref = oracles.schur_matrix(A_list, scalings, sizes, prob.n_vars)
        assert relative_error(np.triu(B), np.triu(ref)) < 1e-10
        assert not B[:, -1].any()


@pytest.mark.parametrize("kind", ["general", "psd_primal", "psd_both"])
def test_step_lengths_from_the_scaling_match_the_cholesky_route(kind):
    # Rinv S Rinv' = diag(lam) = R' Z R, so the steps read off the scaled
    # directions are those of S + t dS and Z + t dZ themselves; a PSD
    # direction has no bound
    rng = np.random.default_rng(["general", "psd_primal", "psd_both"]
                                .index(kind))
    for n in range(1, 21):
        S, Z = random_spd(rng, n), random_spd(rng, n)
        sc = sdp._Scaling(S, Z)
        lam = np.diag(sc.lam)
        assert relative_error(sc.Rinv @ S @ sc.Rinv.T, lam) < 1e-10
        assert relative_error(sc.R.T @ Z @ sc.R, lam) < 1e-10
        dS = sym(rng, n) if kind == "general" else random_spd(rng, n)
        dZ = random_spd(rng, n) if kind == "psd_both" else sym(rng, n)
        etas, steps = sc.steps(dS, dZ)
        np.testing.assert_allclose(etas[0], sc.Rinv @ dS @ sc.Rinv.T)
        np.testing.assert_allclose(etas[1], sc.R.T @ dZ @ sc.R)
        for t, ref in zip(steps, [oracles.max_step(S, dS),
                                  oracles.max_step(Z, dZ)]):
            if ref == np.inf:
                assert t == np.inf
            else:
                assert abs(t - ref) <= 1e-10 * ref
        if kind == "psd_both":
            assert steps == [np.inf, np.inf]


def test_callback_reports_the_step_that_made_each_iterate():
    # alpha_p, alpha_d, sigma and the centring exponent e of the step
    # into each iterate; the start has none.  e adapts between 1 and the
    # cube that a full predictor step gets
    log = []
    sol = solve(certification_problem("six_agent"), callback=log.append)
    assert sol.status is SdpStatus.OPTIMAL
    assert len(log) == sol.n_iterations
    keys = ("alpha_p", "alpha_d", "sigma", "exponent")
    assert all(log[0][k] is None for k in keys)
    for stats in log[1:]:
        assert 0.0 < stats["alpha_p"] <= 1.0 and 0.0 < stats["alpha_d"] <= 1.0
        assert 0.0 <= stats["sigma"] <= 1.0
        assert 1.0 <= stats["exponent"] <= 3.0
    exponents = [stats["exponent"] for stats in log[1:]]
    assert 1.0 in exponents and any(1.0 < e < 3.0 for e in exponents)


def test_a_creeping_merit_ends_the_run_as_a_stall():
    # at tol 1e-11 the dual residual of seeded graph 201 bottoms out near
    # 1e-10 and then falls a little on most iterations.  A best merit that
    # does not halve over 10 iterations ends the run as a stall; a stall
    # test that waited for any decrease ran on to MAX_ITERATIONS.  Whether
    # the best iterate comes within 100x tol depends on the rounding of
    # the BLAS thread count
    prob = assemble(oracles.seeded_graphs()[201]).problem
    sol = solve(prob, tol=1e-11)
    assert sol.status in (SdpStatus.NEAR_OPTIMAL, SdpStatus.NUMERICAL_FAILURE)
    assert sol.n_iterations <= 30


def test_kkt_retry_factors_a_jittered_copy():
    # a rank-one B has no Cholesky factor; the retry builds B again and
    # factors B + jitter I with the first jitter, scale * 1e-12
    v = np.array([1.0, 2.0, 3.0])
    built = []

    def build():
        built.append(np.outer(v, v))
        return built[-1]

    kkt = sdp._KktSolver(build)
    assert len(built) == 2
    jitter = 9.0 * 1e-12
    expected = sla.cho_factor(np.outer(v, v) + jitter * np.eye(3),
                              lower=True)[0]
    np.testing.assert_array_equal(np.tril(kkt.factor), np.tril(expected))
    assert np.shares_memory(kkt.factor, built[-1])
    rhs = np.array([1.0, -1.0, 0.5])
    dy = kkt.solve(rhs)
    np.testing.assert_array_equal(dy, sla.cho_solve((expected, True), rhs))


@pytest.mark.parametrize("n", [1, 7, 300])
def test_kkt_solve_reads_the_upper_triangle(n):
    # the solver gets B with junk below the diagonal, factors it in place
    # and solves as the full symmetric matrix does
    rng = np.random.default_rng(n)
    B = random_spd(rng, n)
    junk = np.triu(B) + np.tril(rng.normal(size=(n, n)), -1)
    kkt = sdp._KktSolver(lambda: junk)
    assert np.shares_memory(kkt.factor, junk)
    rhs = rng.normal(size=n)
    np.testing.assert_allclose(kkt.solve(rhs), np.linalg.solve(B, rhs),
                               rtol=1e-10, atol=1e-12)
