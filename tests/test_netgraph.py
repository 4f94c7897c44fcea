"""Graph structure, Laplacian, hysteresis, and setup-assumption tests.

Laplacian spectra for the small fixed graphs are standard results that can
be checked by hand: the path on three vertices has eigenvalues {0, 1, 3},
the complete graph on N vertices has {0, N, ..., N}."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from robustform.barrier import zone_pairs_at
from robustform.netgraph import (AgentGeometry, GeometryError,
                                 TopologyState,
                                 UncertainAdjacency, haar_basis, laplacian,
                                 pair_distances, reduced_basis,
                                 reduced_laplacian, update_edges,
                                 validate_assumptions)
from robustform.polyalg import MatrixPolynomial

GEOM = AgentGeometry(r_a=0.5, r_c=0.75, r_z=2.5, r_s=8.0, d_s=1.875,
                     eps=0.1)
THRESHOLDS = (GEOM.r_s - GEOM.eps, GEOM.r_s, GEOM.r_z)


@st.composite
def swarms(draw):
    """Positions plus an edge set with formation edges inside it.

    Either all agents sit on the x axis, at signed offsets from agent 0
    that are often exactly r_s - eps, r_s or r_z, or every coordinate is
    a multiple of 1/4.  Either way the per-pair norm of the oracles (a
    dot product, which may fuse its multiply-adds) and the matrix entry are
    the same number, so both decide every threshold comparison alike."""
    n = draw(st.integers(2, 8))
    if draw(st.booleans()):
        offset = st.one_of(st.sampled_from(THRESHOLDS),
                           st.floats(0.0, 10.0))
        x = [0.0] + [draw(offset) * draw(st.sampled_from((1.0, -1.0)))
                     for _ in range(n - 1)]
        pos = np.column_stack([x, np.zeros(n)])
    else:
        grid = st.integers(-40, 40)
        pos = np.array(draw(st.lists(st.tuples(grid, grid), min_size=n,
                                     max_size=n)), dtype=float) / 4.0
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    formation = [e for e in edges if draw(st.booleans())]
    return pos, TopologyState(oracles.pair_mask(n, edges),
                              oracles.pair_mask(n, formation))


def complete_adjacency(N):
    return np.ones((N, N)) - np.eye(N)


def adjacency(G):
    """The numeric adjacency G as an adjacency in no parameters."""
    return UncertainAdjacency(
        len(G), MatrixPolynomial(len(G), len(G), 0, {(): G}),
        oracles.region_column(0), [])


class TestGeometry:

    def test_valid(self):
        assert GEOM.r_s == 8.0

    @pytest.mark.parametrize("kw", [
        dict(r_a=0.0),
        dict(r_c=0.4),
        dict(r_z=9.0),
        dict(r_z=0.7),
        dict(d_s=1.0),
        dict(d_s=2.6),
        dict(eps=-0.1),
        dict(eps=6.0),
    ])
    def test_invalid(self, kw):
        base = dict(r_a=0.5, r_c=0.75, r_z=2.5, r_s=8.0, d_s=1.875, eps=0.1)
        base.update(kw)
        with pytest.raises(GeometryError):
            AgentGeometry(**base)


class TestLaplacian:

    def test_path3_spectrum(self):
        G = np.zeros((3, 3))
        G[0, 1] = G[1, 0] = 1.0
        G[1, 2] = G[2, 1] = 1.0
        L = laplacian(adjacency(G))([])
        eig = np.sort(np.linalg.eigvalsh(L))
        assert np.allclose(eig, [0.0, 1.0, 3.0], atol=1e-12)

    def test_complete4_lambda2(self):
        L = laplacian(adjacency(complete_adjacency(4)))([])
        eig = np.sort(np.linalg.eigvalsh(L))
        assert eig[1] == pytest.approx(4.0, abs=1e-12)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(7)
        W = rng.uniform(0.5, 2.0, size=(5, 5))
        G = np.triu(W, 1) + np.triu(W, 1).T
        L = laplacian(adjacency(G))([])
        assert np.allclose(L.sum(axis=1), 0.0, atol=1e-12)
        assert np.allclose(L, L.T)
        np.testing.assert_array_equal(L, oracles.laplacian(G))

    def test_rejects_asymmetric(self):
        G = np.zeros((3, 3))
        G[0, 1] = 1.0
        with pytest.raises(ValueError, match="not symmetric"):
            laplacian(adjacency(G))

    def test_rejects_diagonal(self):
        G = complete_adjacency(3) + np.eye(3)
        with pytest.raises(ValueError, match="nonzero diagonal"):
            laplacian(adjacency(G))

    def test_polynomial_matches_numeric_samples(self):
        # K3 with one uncertain weight 1 + 0.3 theta on edge (0,1).
        w01 = {(0,): 1.0, (1,): 0.3}
        one = {(0,): 1.0}
        zero = {}
        A = _grid(3, 3, 1, [
            zero, w01, one,
            w01, zero, one,
            one, one, zero,
        ])
        L = laplacian(UncertainAdjacency(3, A, oracles.region_column(1),
                                         [(-1.0, 2.0)]))
        for th in (-1.0, 0.0, 0.5, 2.0):
            num = complete_adjacency(3)
            num[0, 1] = num[1, 0] = 1.0 + 0.3 * th
            assert np.allclose(L(np.array([th])), oracles.laplacian(num),
                               atol=1e-12)


class TestReducedBasis:

    @pytest.mark.parametrize("N", [2, 3, 6, 11, 50])
    def test_orthonormal_and_ones_free(self, N):
        M = reduced_basis(N)
        assert M.shape == (N, N - 1)
        assert np.allclose(M.T @ M, np.eye(N - 1), atol=1e-12)
        assert np.allclose(np.ones(N) @ M, 0.0, atol=1e-12)

    def test_deterministic(self):
        assert np.array_equal(reduced_basis(9), reduced_basis(9))

    def test_k2_reduced_laplacian(self):
        # K2 has Laplacian [[1,-1],[-1,1]]; its nontrivial eigenvalue is 2.
        L = laplacian(adjacency(complete_adjacency(2)))
        R = reduced_laplacian(L, reduced_basis(2))
        assert R.shape == (1, 1)
        assert R([])[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_reduced_spectrum_drops_zero(self):
        rng = np.random.default_rng(3)
        W = rng.uniform(0.1, 1.0, size=(6, 6))
        G = np.triu(W, 1) + np.triu(W, 1).T
        R = reduced_laplacian(laplacian(adjacency(G)), reduced_basis(6))
        full = np.sort(np.linalg.eigvalsh(oracles.laplacian(G)))
        red = np.sort(np.linalg.eigvalsh(R([])))
        assert np.allclose(red, full[1:], atol=1e-10)

    def test_polynomial_reduction_commutes_with_eval(self):
        w = {(0,): 2.0, (1,): 1.0}
        zero = {}
        A = _grid(2, 2, 1, [zero, w, w, zero])
        L = laplacian(UncertainAdjacency(2, A, oracles.region_column(1),
                                         [(0.0, 1.0)]))
        M = reduced_basis(2)
        R = reduced_laplacian(L, M)
        th = np.array([0.7])
        assert np.allclose(R(th), M.T @ L(th) @ M, atol=1e-12)
        assert R(th)[0, 0] == pytest.approx(2 * 2.7, abs=1e-12)


class TestHaarBasis:

    def test_small_bases_by_hand(self):
        r2, r6 = np.sqrt(2.0), np.sqrt(6.0)
        np.testing.assert_allclose(haar_basis(2), [[1 / r2], [-1 / r2]],
                                   rtol=0, atol=1e-16)
        # [0, 3) splits into {0} and {1, 2}, then {1, 2} into {1} and {2}
        np.testing.assert_allclose(
            haar_basis(3), [[2 / r6, 0], [-1 / r6, 1 / r2],
                            [-1 / r6, -1 / r2]], rtol=0, atol=1e-16)
        np.testing.assert_allclose(
            haar_basis(4), [[0.5, 1 / r2, 0], [0.5, -1 / r2, 0],
                            [-0.5, 0, 1 / r2], [-0.5, 0, -1 / r2]],
            rtol=0, atol=1e-16)

    @pytest.mark.parametrize("N", [2, 3, 5, 6, 11, 50, 101])
    def test_orthonormal_ones_free_and_the_recursive_definition(self, N):
        M = haar_basis(N)
        assert M.shape == (N, N - 1)
        np.testing.assert_allclose(M.T @ M, np.eye(N - 1), rtol=0,
                                   atol=1e-14)
        np.testing.assert_allclose(np.ones(N) @ M, 0.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(M, oracles.haar_basis(N), rtol=0,
                                   atol=1e-15)

    def test_a_ring_stays_sparse(self):
        # M' L M of the unit ring of 50 agents: 503 of 2401 entries, where
        # the Helmert basis fills all of them
        N = 50
        G = np.zeros((N, N))
        G[np.arange(N), (np.arange(N) + 1) % N] = 1.0
        L = oracles.laplacian(G + G.T)
        M = haar_basis(N)
        assert np.count_nonzero(np.abs(M.T @ L @ M) > 1e-12) == 503
        helmert = reduced_basis(N)
        assert np.count_nonzero(np.abs(helmert.T @ L @ helmert) > 1e-12) \
            == (N - 1) ** 2


class TestTopology:

    def make_topo(self):
        return TopologyState(
            oracles.pair_mask(4, [(0, 1), (1, 2), (2, 3)]),
            oracles.pair_mask(4, [(0, 1), (1, 2)]))

    @staticmethod
    def pair_topo(edge: bool, formation: bool = False):
        """Two agents; (0, 1) an edge and a formation edge as asked."""
        return TopologyState(
            oracles.pair_mask(2, [(0, 1)] if edge else []),
            oracles.pair_mask(2, [(0, 1)] if formation else []))

    def test_hysteresis_add(self):
        # Agents 0 and 3 sit exactly at r_s - eps: edge is added.
        pos = np.array([[0.0, 0.0], [GEOM.r_s - GEOM.eps, 0.0]])
        new = update_edges(pair_distances(pos), self.pair_topo(False), GEOM)
        assert new.edges[0, 1]

    def test_no_add_inside_band(self):
        # Distance in (r_s - eps, r_s]: no addition, and an existing edge
        # also survives, which is the hysteresis band doing its job.
        dist = pair_distances(
            np.array([[0.0, 0.0], [GEOM.r_s - GEOM.eps / 2, 0.0]]))
        assert not update_edges(dist, self.pair_topo(False),
                                GEOM).edges[0, 1]
        assert update_edges(dist, self.pair_topo(True), GEOM).edges[0, 1]

    def test_remove_beyond_rs(self):
        pos = np.array([[0.0, 0.0], [GEOM.r_s + 0.01, 0.0]])
        new = update_edges(pair_distances(pos), self.pair_topo(True), GEOM)
        assert not new.edges[0, 1]

    def test_formation_edge_never_removed(self):
        dist = pair_distances(np.array([[0.0, 0.0], [GEOM.r_s + 5.0, 0.0]]))
        present = self.pair_topo(True, formation=True)
        assert update_edges(dist, present, GEOM).edges[0, 1]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_pair_distances_are_the_pair_norms_bit_for_bit(self, dim):
        # np.linalg.norm with an axis sums the squares coordinate by
        # coordinate (without one, a vector's norm may go through BLAS dot)
        x = 10.0 * np.random.default_rng(dim).normal(size=(30, dim))
        ref = np.array([[np.linalg.norm(x[i] - x[j], axis=-1)
                         for j in range(30)] for i in range(30)])
        assert np.array_equal(pair_distances(x), ref)

    def test_unchanged_returns_same_object(self):
        dist = pair_distances(np.array([[0.0, 0.0], [3.0, 0.0]]))
        present = self.pair_topo(True)
        assert update_edges(dist, present, GEOM) is present

    @pytest.mark.parametrize("bad", [
        np.zeros((2, 3), dtype=bool), np.zeros(4, dtype=bool),
        np.tril(np.ones((3, 3), dtype=bool), -1), np.eye(3, dtype=bool)],
        ids=["non_square", "one_dimensional", "lower_triangle",
             "diagonal"])
    @pytest.mark.parametrize("field", ["edges", "formation"])
    def test_masks_must_be_strictly_upper_triangular(self, bad, field):
        n = bad.shape[0]
        masks = {"edges": np.zeros((n, n), dtype=bool),
                 "formation": np.zeros((n, n), dtype=bool), field: bad}
        with pytest.raises(ValueError, match=f"^{field}: "):
            TopologyState(**masks)

    def test_formation_mask_shape_must_match(self):
        with pytest.raises(ValueError, match="^formation: need a 3 x 3"):
            TopologyState(np.zeros((3, 3), dtype=bool),
                          np.zeros((2, 2), dtype=bool))

    def test_masks_are_read_only_copies(self):
        edges = oracles.pair_mask(3, [(0, 1), (1, 2)])
        topo = TopologyState(edges, oracles.pair_mask(3, [(0, 1)]))
        assert topo.edges.shape == topo.formation.shape == (3, 3)
        for mask in (topo.edges, topo.formation,
                     zone_pairs_at(np.zeros((3, 3)), topo, GEOM)):
            with pytest.raises(ValueError, match="read-only"):
                mask[0, 2] = True
        edges[0, 2] = True  # the caller's array is not the stored mask
        assert not topo.edges[0, 2]

    def test_neighbor_sets(self):
        topo = self.make_topo()
        pos = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [6.0, 0.0]])
        ns, nsf, nsz = oracles.neighbor_sets(1, pos, topo, GEOM)
        assert ns == {0, 2}
        assert nsf == {0, 2}
        assert nsz == {0, 2}
        ns0, nsf0, nsz0 = oracles.neighbor_sets(0, pos, topo, GEOM)
        assert ns0 == {1}
        # Distance 2.0 < r_z so agent 1 is in agent 0's zone set.
        assert nsz0 == {1}
        ns3, nsf3, nsz3 = oracles.neighbor_sets(3, pos, topo, GEOM)
        assert ns3 == {2}
        assert nsf3 == set()
        # the zone sets are the zone pairs read off the distance matrix
        assert oracles.pairs(zone_pairs_at(pair_distances(pos), topo,
                                           GEOM)) == [(0, 1), (1, 2), (2, 3)]

    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(swarms())
    def test_mask_geometry_matches_loop_oracles(self, swarm):
        pos, topo = swarm
        dist = pair_distances(pos)
        new = update_edges(dist, topo, GEOM)
        ref = oracles.update_edges(pos, topo, GEOM)
        assert np.array_equal(new.edges, ref.edges)
        assert np.array_equal(new.formation, ref.formation)
        assert (new is topo) == (ref is topo)
        assert np.array_equal(zone_pairs_at(dist, new, GEOM),
                              oracles.zone_pairs_at(pos, new, GEOM))
        # the start of a run: the formation mask, then one update
        start = update_edges(dist, TopologyState(topo.formation,
                                                 topo.formation), GEOM)
        ref = oracles.initial_topology(pos, topo.formation, GEOM)
        assert np.array_equal(start.edges, ref.edges)
        assert np.array_equal(start.formation, ref.formation)

    def test_connectivity_helpers(self):
        def connected(n, edges):
            mask = oracles.pair_mask(n, edges)
            return TopologyState(mask, np.zeros_like(mask)).connected

        assert connected(3, [(0, 1), (1, 2)])
        assert not connected(3, [(0, 1)])
        assert not connected(5, [(0, 1), (2, 3)])
        assert connected(1, [])


class TestUncertainAdjacency:

    def make(self):
        w = {(0,): 1.0, (1,): 0.5}
        zero = {}
        ent = _grid(2, 2, 1, [zero, w, w, zero])
        # Omega = [-1, 1] described by 1 - theta^2 >= 0.
        s = {(0,): 1.0, (2,): -1.0}
        return UncertainAdjacency(2, ent, oracles.region_column(1, s),
                                  [(-1.2, 1.2)])

    def test_valid(self):
        ua = self.make()
        assert ua.r == 1

    def test_sample_omega_in_set(self):
        ua = self.make()
        pts = ua.sample_omega(np.random.default_rng(0), 500)
        assert pts.shape == (500, 1)
        assert np.all(np.abs(pts) <= 1.0)
        # The sampler has to actually cover Omega, not a corner of it.
        assert pts.min() < -0.8 and pts.max() > 0.8

    def test_rejects_nonzero_diagonal(self):
        t = {(1,): 1.0}
        ent = _grid(2, 2, 1, [t, t, t, t])
        with pytest.raises(ValueError, match="nonzero diagonal"):
            UncertainAdjacency(2, ent, oracles.region_column(1),
                               [(-1, 1)])

    def test_rejects_asymmetric(self):
        zero = {}
        one = {(0,): 1.0}
        ent = _grid(2, 2, 1, [zero, one, zero, zero])
        with pytest.raises(ValueError, match="not symmetric"):
            UncertainAdjacency(2, ent, oracles.region_column(1),
                               [(-1, 1)])

    def test_rejects_region_that_is_not_one_column(self):
        # the region inequalities are one k x 1 column in the weights'
        # parameters
        ent = self.make().entries
        for omega in (oracles.matpoly(1, 2, 1, {}),
                      oracles.region_column(2, {(0, 0): 1.0})):
            with pytest.raises(ValueError, match="one column"):
                UncertainAdjacency(2, ent, omega, [(-1, 1)])

    def test_sample_omega_keeps_points_of_every_inequality(self):
        # theta >= 0 and 1 - theta^2 >= 0: the samples fill [0, 1]
        ua = UncertainAdjacency(
            2, self.make().entries,
            oracles.region_column(1, {(1,): 1.0}, {(0,): 1.0, (2,): -1.0}),
            [(-1.2, 1.2)])
        pts = ua.sample_omega(np.random.default_rng(1), 400)
        assert 0.0 <= pts.min() < 0.05 and 0.95 < pts.max() <= 1.0

    def test_rejects_near_symmetric(self):
        # a relative asymmetry of 1e-6 is still asymmetric
        with pytest.raises(ValueError, match="not symmetric"):
            adjacency(np.array([[0.0, 1.0], [1.000001, 0.0]]))

    def test_rejects_bad_box(self):
        w = {(0,): 1.0, (1,): 1.0}
        zero = {}
        ent = _grid(2, 2, 1, [zero, w, w, zero])
        with pytest.raises(ValueError):
            UncertainAdjacency(2, ent, oracles.region_column(1), [])


class TestAssumptions:

    def line_setup(self):
        # Two agents, desired separation 3.5 along x.
        tau = np.array([[0.0, 0.0], [3.5, 0.0]])
        pos = np.array([[0.0, 0.0], [3.6, 0.0]])
        return tau, oracles.pair_mask(2, [(0, 1)]), pos

    def test_a3_fails_for_wide_formation(self):
        # r_s - 3.5 = 4.5 is not greater than d_s + 3.5 = 5.375.
        tau, fe, pos = self.line_setup()
        passed, lines = validate_assumptions(tau, fe, pos, GEOM)
        assert lines[:3] == ["A1: PASS", "A2: PASS", "A3: FAIL"]
        assert not passed

    def test_a3_passes_for_tight_formation(self):
        tau = np.array([[0.0, 0.0], [2.8, 0.0]])
        pos = np.array([[0.0, 0.0], [2.9, 0.0]])
        passed, lines = validate_assumptions(
            tau, oracles.pair_mask(2, [(0, 1)]), pos, GEOM)
        # r_s - 2.8 = 5.2 > d_s + 2.8 = 4.675.
        assert passed
        assert lines == ["A1: PASS", "A2: PASS", "A3: PASS"]

    def test_a1_bounds(self):
        # Desired distance below r_z fails A1.
        tau = np.array([[0.0, 0.0], [2.0, 0.0]])
        pos = np.array([[0.0, 0.0], [2.0, 0.0]])
        _, lines = validate_assumptions(
            tau, oracles.pair_mask(2, [(0, 1)]), pos, GEOM)
        assert lines[0] == "A1: FAIL"
        assert "pair (0,1)" in lines[1]

    def test_a2_initial_range(self):
        tau = np.array([[0.0, 0.0], [2.8, 0.0]])
        pos = np.array([[0.0, 0.0], [7.95, 0.0]])
        _, lines = validate_assumptions(
            tau, oracles.pair_mask(2, [(0, 1)]), pos, GEOM)
        assert lines[1:3] == ["A2: FAIL", "  pair (0,1): initial distance "
                              "7.9500 > 7.9"]

    def test_override_reports_skipped(self):
        tau, fe, pos = self.line_setup()
        passed, lines = validate_assumptions(
            tau, fe, pos, GEOM, overrides={"A3": "wide-formation demo"})
        assert passed
        assert "A3: SKIPPED (wide-formation demo)" in lines

    def test_non_formation_pairs_ignored(self):
        # Same wide pair but no formation edge between them: nothing to
        # check, so every assumption passes vacuously.
        tau, _, pos = self.line_setup()
        passed, _ = validate_assumptions(tau, oracles.pair_mask(2, []), pos,
                                         GEOM)
        assert passed


def _grid(rows, cols, r, entries):
    """Matrix polynomial from a row-major list of term-dict entries."""
    return oracles.matpoly(rows, cols, r, {
        divmod(k, cols): p for k, p in enumerate(entries)})
