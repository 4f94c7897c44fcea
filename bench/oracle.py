"""Checks made apart from the program, with NumPy and the standard library.

Nothing here imports robustform's polyalg or netgraph: the Laplacian is
assembled straight from the weight term records of the scenario JSON, the
reduced basis is written down from its definition (Helmert vectors), and
run directories are read back from their CSV files.  Each check returns a
list of failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path

import numpy as np

# Same limit the run monitor applies between steps (simulate.run's
# drift_tol default), so the check is exact, not looser.
DRIFT_TOL = 1e-4
PSD_TOL = 1e-6
LAMBDA2_AGREE = 1e-9
# events.jsonl actions that change the barrier or edge terms of the energy
MASK_ACTIONS = {"add", "remove", "zone_enter", "zone_leave"}


def _terms(records) -> tuple[np.ndarray, np.ndarray]:
    exps = np.array([t["exponents"] for t in records], dtype=float)
    coeffs = np.array([t["coeff"] for t in records], dtype=float)
    return exps, coeffs


def _poly_at(records, thetas: np.ndarray) -> np.ndarray:
    """A term-record polynomial at an (m, r) batch of points."""
    exps, coeffs = _terms(records)
    if thetas.shape[1] == 0:
        return np.full(thetas.shape[0], coeffs.sum())
    monos = np.prod(thetas[:, None, :] ** exps[None, :, :], axis=2)
    return monos @ coeffs


class ScenarioOracle:
    """The parts of a scenario file the checks need, read from JSON."""

    def __init__(self, path):
        doc = json.loads(Path(path).read_text())
        unc = doc["uncertainty"]
        self.tau = np.asarray(doc["tau"], dtype=float)
        self.N = self.tau.shape[0]
        self.r = int(unc["n_parameters"])
        self.box = np.asarray(unc["box"], dtype=float).reshape(self.r, 2)
        self.region = [g["terms"] for g in unc["region"]]
        self.weights = [(int(w["i"]), int(w["j"]), w["terms"])
                        for w in unc["weights"]]
        self.geometry = doc["geometry"]
        self.formation_edges = [tuple(e) for e in doc["formation_edges"]]
        self.dt = float(doc["dt"])
        self.conv_tol = doc.get("conv_tol")

    def sample_region(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Uniform points of the region by rejection from the box."""
        out = np.zeros((0, self.r))
        while out.shape[0] < n:
            cand = rng.uniform(self.box[:, 0], self.box[:, 1],
                               size=(4 * n, self.r))
            keep = np.ones(len(cand), dtype=bool)
            for g in self.region:
                keep &= _poly_at(g, cand) >= 0.0
            out = np.vstack([out, cand[keep]])
        return out[:n]

    def laplacian_at(self, thetas: np.ndarray) -> np.ndarray:
        """(m, N, N) Laplacians D - W at a batch of parameter points."""
        L = np.zeros((thetas.shape[0], self.N, self.N))
        for i, j, terms in self.weights:
            w = _poly_at(terms, thetas)
            L[:, i, j] -= w
            L[:, j, i] -= w
            L[:, i, i] += w
            L[:, j, j] += w
        return L

    def lambda2_at(self, thetas: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(self.laplacian_at(thetas))[:, 1]


def helmert(N: int) -> np.ndarray:
    """Orthonormal basis of {x : 1'x = 0}: column k-1 is
    (1, ..., 1, -k, 0, ..., 0) / sqrt(k (k + 1))."""
    M = np.zeros((N, N - 1))
    for k in range(1, N):
        M[:k, k - 1] = 1.0
        M[k, k - 1] = -k
        M[:, k - 1] /= np.sqrt(k * (k + 1))
    return M


def phi_norm2(thetas: np.ndarray, d: int) -> np.ndarray:
    """|phi_d(theta)|^2: the sum of theta^(2e) over all monomials e of
    total degree <= d."""
    r = thetas.shape[1]
    out = np.zeros(thetas.shape[0])
    for e in itertools.product(range(d + 1), repeat=r):
        if sum(e) <= d:
            out += np.prod(thetas ** (2 * np.asarray(e, dtype=float)),
                           axis=1)
    return out


def certificate_checks(sc: ScenarioOracle, cert_doc: dict,
                       lambda2_thetas: np.ndarray,
                       lambda2_values: np.ndarray,
                       rng: np.random.Generator,
                       n_samples: int) -> tuple[list[str], dict]:
    """Check a stored certificate against the scenario.

    lambda2_thetas/values are what the program's sample_lambda2 returned;
    the oracle must reproduce them at the same points.  rng draws the
    benchmark's own points for the bound and pencil checks."""
    fails = []
    P = np.asarray(cert_doc["P_bar"], dtype=float)
    Rs = [np.asarray(R, dtype=float) for R in cert_doc["R_bars"]]
    c = float(cert_doc["c_star"])
    plan = cert_doc["degree_plan"]

    ours = sc.lambda2_at(lambda2_thetas)
    scale = max(1.0, float(np.max(np.abs(ours))))
    gap = float(np.max(np.abs(ours - lambda2_values)))
    if gap > LAMBDA2_AGREE * scale:
        fails.append(f"lambda2 differs from the oracle by {gap:.3e}")

    for name, X in [("P_bar", P)] + [(f"R_bar{k}", R)
                                     for k, R in enumerate(Rs)]:
        ev = float(np.linalg.eigvalsh(X)[0])
        if ev < -PSD_TOL:
            fails.append(f"{name} has eigenvalue {ev:.3e}")
    if abs(float(np.trace(P)) - 1.0) > PSD_TOL:
        fails.append(f"trace(P_bar) = {np.trace(P)!r}")

    thetas = sc.sample_region(rng, n_samples)
    lam2 = sc.lambda2_at(thetas)
    bound = c / (2.0 * float(np.linalg.eigvalsh(P)[-1]))
    if not 0.0 < bound <= float(lam2.min()):
        fails.append(f"implied bound {bound!r} not in (0, sampled "
                     f"min lambda2 {lam2.min()!r}]")

    if int(plan["d_P"]) != 0:
        fails.append("pencil check supports d_P = 0 only")
    else:
        M = helmert(sc.N)
        Lh = M.T @ sc.laplacian_at(thetas) @ M
        H = P @ Lh + Lh @ P
        s = M.shape[1]
        H -= (c * phi_norm2(thetas, int(plan["d_H"])))[:, None, None] \
            * np.eye(s)
        margin = float(np.linalg.eigvalsh(H)[:, 0].min())
        if margin < -PSD_TOL:
            fails.append(f"pencil dominance violated by {margin:.3e}")
    return fails, {"lambda2_bound": bound,
                   "oracle_min_lambda2": float(lam2.min())}


def _pair_min_distance(X: np.ndarray) -> float:
    """Smallest distance between two agents over (S, N, dim) positions."""
    iu, ju = np.triu_indices(X.shape[1], k=1)
    return float(np.linalg.norm(X[:, iu] - X[:, ju], axis=2).min())


def trajectory_checks(sc: ScenarioOracle, positions: np.ndarray,
                      energy_t: np.ndarray, energy: np.ndarray,
                      mask_changes: set, converge: bool) -> list[str]:
    """Invariants of a finished run, from its recorded arrays.

    The energy may not rise between steps by more than the drift limit,
    except at a step where a pair entered or left the collision zone or an
    edge switched: there it jumps by the entering and leaving terms, which
    the recorded stride does not allow to recompute."""
    fails = []
    d_s, r_s = float(sc.geometry["d_s"]), float(sc.geometry["r_s"])
    dmin = _pair_min_distance(positions)
    if not dmin > d_s:
        fails.append(f"agents came within {dmin!r} of each other, d_s={d_s}")
    rise = np.diff(energy)
    smooth = np.array([t not in mask_changes for t in energy_t[1:]],
                      dtype=bool)
    if rise.size and np.max(rise[smooth], initial=0.0) > DRIFT_TOL * sc.dt:
        fails.append(f"energy rose by {np.max(rise[smooth])!r} in one step")
    fi = np.array([e[0] for e in sc.formation_edges])
    fj = np.array([e[1] for e in sc.formation_edges])
    final = positions[-1]
    if not np.all(np.linalg.norm(final[fi] - final[fj], axis=1) < r_s):
        fails.append("a formation edge ends at or beyond r_s")
    if converge:
        y = final - sc.tau
        err = float(np.max(np.linalg.norm(y[fi] - y[fj], axis=1)))
        if not err <= float(sc.conv_tol):
            fails.append(f"final formation error {err!r} above conv_tol")
    return fails


def read_run_dir(run_dir: Path, n_agents: int):
    """(S, N, dim) positions from trajectory.csv, the time and energy
    columns of energy.csv, and the times of mask changes in events.jsonl."""
    with (run_dir / "trajectory.csv").open() as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    dim = sum(1 for h in header if h.startswith("x"))
    positions = body[:, 2:2 + dim].reshape(-1, n_agents, dim)
    with (run_dir / "energy.csv").open() as fh:
        energy = np.array(list(csv.reader(fh))[1:], dtype=float)
    with (run_dir / "events.jsonl").open() as fh:
        events = [json.loads(line) for line in fh]
    changes = {ev["t"] for ev in events
               if ev["action"] in MASK_ACTIONS}
    return positions, energy[:, 0], energy[:, 1], changes
