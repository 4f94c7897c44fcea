"""Scenario definitions: formation, initial state, uncertain weights.

A scenario bundles everything a simulation run needs except the seed:
agent geometry, desired formation offsets, initial positions and
velocities, the formation edges, and the uncertain weight matrix with its
parameter region.  A scenario is read from a small JSON document whose
polynomial entries are explicit term records, so files stay diffable and
independent of any pickle format.  A ScenarioSpec holds the file's
[i, j] formation edges as one N x N pair mask (see netgraph.upper_mask).
A malformed file raises ValueError naming the key path of the bad value,
such as tau[1], and refuses every key it does not read.  A key a file
may leave out takes the default of its ScenarioSpec field.  The shipped
scenarios (BUILTIN) are defined only by their files under scenarios/,
found by builtin_path.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .barrier import BarrierParams
from .netgraph import ASSUMPTIONS, AgentGeometry, UncertainAdjacency, \
    laplacian, upper_mask
from .polyalg import MatrixPolynomial

FORMAT = "formation-scenario/2"
# the keys of a document; from "barrier" on, a key a file leaves out takes
# the default of its ScenarioSpec field
KEYS = ("format", "name", "geometry", "tau", "positions", "velocities",
        "formation_edges", "uncertainty", "barrier", "assumption_overrides",
        "jitter_pos", "jitter_vel", "T_end", "dt", "record_every",
        "conv_tol")
NAME_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")

# step_count refuses a horizon of more steps of dt.  simulate.run keeps two
# floats of the energy trace per step and a record every record_every
# steps: its traced peak grew by 123 bytes per step on six_agent
# (record_every 20) and 107 on fifty_agent (100), so the limit holds
# those to about 120 MB
MAX_STEPS = 1_000_000

# step_count also refuses a horizon whose records take more bytes, counted
# by record_bytes.  At record_every 1, with the energy trace's 78 bytes per
# step taken out, simulate.run's traced peak grew by 1341 bytes per record
# on six_agent (N d = 12 coordinates) and 6230 on fifty_agent (N d = 100):
# 7 floats per coordinate (the state and its rate, which a record keeps
# views of, and the three arrays of the log) and about 680 bytes of array
# headers.  The limit holds the records to about 120 MB, as MAX_STEPS does
# the energy trace: 88 000 records of six_agent, 19 000 of fifty_agent
MAX_RECORD_BYTES = 120_000_000


def _require(ok: bool, key: str, rule: str, value) -> None:
    """Raise ValueError naming the field key unless ok."""
    if not ok:
        raise ValueError(f"{key}: must be {rule}, got {value!r}")


def record_bytes(n_coords: int) -> int:
    """Bytes that simulate.run holds per record of n_coords = N d state
    coordinates (see MAX_RECORD_BYTES)."""
    return 56 * n_coords + 680


def step_count(T_end: float, dt: float, record_every: int,
               n_coords: int) -> int:
    """round(T_end / dt), the steps of dt that reach T_end; raises
    ValueError naming T_end and the limit when they are more than
    MAX_STEPS, or when a run of them, which records the first state, every
    record_every-th and the last, would hold more than MAX_RECORD_BYTES of
    records of n_coords coordinates each."""
    steps = T_end / dt  # inf when the quotient overflows
    _require(math.isfinite(steps) and round(steps) <= MAX_STEPS, "T_end",
             f"at most the limit of {MAX_STEPS} steps of dt = {dt!r}", T_end)
    steps = round(steps)
    records = 1 - (-steps // record_every)
    held = records * record_bytes(n_coords)
    _require(held <= MAX_RECORD_BYTES, "T_end",
             f"within the limit of {MAX_RECORD_BYTES} bytes of records, "
             f"not {records} records of {n_coords} coordinates ({held} "
             f"bytes) at dt = {dt!r} and record_every = {record_every}",
             T_end)
    return steps


def _is_int(value) -> bool:
    """An integer, and not a boolean (JSON true is no count)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A float, or an integer (not a boolean) within the range of floats."""
    return isinstance(value, float) or (
        _is_int(value) and abs(value) <= sys.float_info.max)


def known_keys(doc, where: str, keys) -> dict:
    """doc, the value at key path where ("" at the top level), once it is
    an object of no keys but keys; else ValueError names the first other."""
    _require(isinstance(doc, dict), where, "an object", doc)
    for key in doc:
        if key not in keys:
            raise ValueError(f"{where + '.' if where else ''}{key}: unknown "
                             f"key (known: {', '.join(keys)})")
    return doc


def _get(doc, where: str, key: str):
    """doc[key], doc being the value at key path where."""
    _require(isinstance(doc, dict), where, "an object", doc)
    if key not in doc:
        raise ValueError(f"{where + '.' if where else ''}{key}: missing")
    return doc[key]


def _field(doc: dict, path: str):
    """doc's value at a dotted key path."""
    *parents, last = path.split(".")
    for k, key in enumerate(parents):
        doc = _get(doc, ".".join(parents[:k]), key)
    return _get(doc, ".".join(parents), last)


def _items(doc: dict, path: str) -> list:
    """The list at a key path of doc (see _field)."""
    value = _field(doc, path)
    _require(isinstance(value, list), path, "a list", value)
    return value


def _number(doc: dict, path: str) -> float:
    """The number at a key path of doc (see _field), as a float."""
    value = _field(doc, path)
    _require(_is_number(value), path, "a number", value)
    return float(value)


def _matrix(rows, where: str, rule: str = "rows of numbers") -> np.ndarray:
    """rows, the value at key path where, as an array: a list of rows of
    numbers, all as long; else ValueError names where and rule."""
    ok = isinstance(rows, list) and all(isinstance(a, list) for a in rows)
    _require(ok, where, rule, rows)
    for k, row in enumerate(rows):
        _require(len(row) == len(rows[0]) and all(map(_is_number, row)),
                 f"{where}[{k}]", f"{len(rows[0])} numbers", row)
    return np.array(rows, dtype=float)


def _rows(doc: dict, key: str) -> np.ndarray:
    """doc[key] as an array: one row of numbers per agent, all as long."""
    return _matrix(_field(doc, key), key,
                   "rows of coordinates, one list per agent")


def _terms(r: int, doc, where: str, keys) -> dict:
    """The coefficients by monomial, in record order, of the term
    records at doc["terms"], doc being the value at key path where, an
    object of keys.  A record holds r integer "exponents" >= 0 and a finite
    "coeff"; records of equal exponents add up (MatrixPolynomial stores a
    sum of magnitude at most COEFF_CLEANUP as zero)."""
    records = _get(known_keys(doc, where, keys), where, "terms")
    _require(isinstance(records, list), f"{where}.terms", "a list", records)
    terms: dict = {}
    for m, rec in enumerate(records):
        rec = known_keys(rec, f"{where}.terms[{m}]", ("exponents", "coeff"))
        e, c = rec.get("exponents"), rec.get("coeff")
        _require(isinstance(e, list) and len(e) == r and all(
            _is_int(x) and x >= 0 for x in e) and _is_number(c)
            and math.isfinite(c), f"{where}.terms[{m}]",
            f"a record of {r} exponents (integers >= 0) and a finite coeff",
            rec)
        terms[tuple(e)] = terms.get(tuple(e), 0.0) + float(c)
    return terms


def _numbers(doc: dict, key: str, cls, positive: bool):
    """cls of the finite numbers, all > 0 if positive, in the object
    doc[key], one per field of cls."""
    names = [f.name for f in fields(cls)]
    known_keys(_field(doc, key), key, names)
    values = {name: _number(doc, f"{key}.{name}") for name in names}
    for name, value in values.items():
        _require(math.isfinite(value) and (value > 0 or not positive),
                 f"{key}.{name}", "finite and > 0" if positive else "finite",
                 value)
    return cls(**values)


def _check_reach(adj: UncertainAdjacency, index: dict) -> None:
    """Raise ValueError, naming the weights, unless every Laplacian entry
    sum_e C_e[i, j] theta^e of adj is bounded on its box by the finite
    sum_e |C_e[i, j]| prod_k max(|lo_k|, |hi_k|)^e_k, so that no point of
    the box evaluates it to an inf or a nan.  index maps each pair (i, j),
    i < j, to the position of its record in uncertainty.weights."""
    radius = np.array([max(abs(lo), abs(hi)) for lo, hi in adj.box])
    reach = np.zeros((adj.N, adj.N))
    with np.errstate(over="ignore", invalid="ignore"):
        for e, C in laplacian(adj).coeffs.items():
            reach += np.where(C != 0, np.abs(C) * np.prod(radius ** e), 0.0)
    bad = ~np.isfinite(reach)
    # an off-diagonal entry is one weight, a diagonal one sums a row
    if np.triu(bad, 1).any():
        i, j = np.argwhere(np.triu(bad, 1))[0].tolist()
        raise ValueError(
            f"uncertainty.weights[{index[i, j]}]: the weight of pair "
            f"({i}, {j}) can exceed the float range on uncertainty.box")
    if bad.any():
        i = int(np.flatnonzero(np.diag(bad))[0])
        pairs = ", ".join(str(p) for p in sorted(index) if i in p)
        raise ValueError(
            f"uncertainty.weights: the weights of agent {i}, pairs {pairs}, "
            f"can sum beyond the float range on uncertainty.box")


@dataclass
class ScenarioSpec:
    """Complete input for a simulation run, minus the seed."""

    name: str
    geometry: AgentGeometry
    tau: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    formation: np.ndarray
    adjacency: UncertainAdjacency
    barrier: BarrierParams | None = None
    assumption_overrides: dict = field(default_factory=dict)
    jitter_pos: float = 0.0
    jitter_vel: float = 0.0
    T_end: float = 40.0
    dt: float = 1e-3
    record_every: int = 100
    conv_tol: float | None = None

    def __post_init__(self):
        # the name becomes a file name in output directories
        if not (isinstance(self.name, str) and NAME_RE.fullmatch(self.name)):
            raise ValueError(f"name: {self.name!r} is not a plain file "
                             f"name matching {NAME_RE.pattern}")
        N = self.adjacency.N
        for key in ("tau", "positions", "velocities"):
            a = np.asarray(getattr(self, key), dtype=float)
            if a.ndim != 2 or a.shape[0] != N or a.shape[1] < 1:
                raise ValueError(
                    f"{key}: must be {N} rows of coordinates, one per "
                    f"agent, got shape {a.shape}")
            bad = np.argwhere(~np.isfinite(a))
            if bad.size:
                i, k = bad[0]
                raise ValueError(f"{key}: coordinate [{i}][{k}] is "
                                 f"{a[i, k]}, must be finite")
            setattr(self, key, a)
        if self.tau.shape != self.positions.shape or \
                self.tau.shape != self.velocities.shape:
            raise ValueError("tau, positions, velocities shapes differ")
        self.formation = upper_mask(self.formation, "formation", N)
        for key in ("dt", "T_end"):
            value = getattr(self, key)
            _require(math.isfinite(value) and value > 0, key,
                     "finite and > 0", value)
        _require(_is_int(self.record_every) and self.record_every >= 1,
                 "record_every", "an integer >= 1", self.record_every)
        step_count(self.T_end, self.dt, self.record_every,
                   self.positions.size)
        for key in ("jitter_pos", "jitter_vel"):
            value = getattr(self, key)
            _require(math.isfinite(value) and value >= 0, key,
                     "finite and >= 0", value)
        tol, overrides = self.conv_tol, self.assumption_overrides
        _require(tol is None or (math.isfinite(tol) and tol > 0), "conv_tol",
                 "null or finite and > 0", tol)
        _require(all(isinstance(v, str) for v in known_keys(
            overrides, "assumption_overrides", ASSUMPTIONS).values()),
            "assumption_overrides", "an object of strings", overrides)

    @property
    def n_agents(self) -> int:
        return self.adjacency.N

    @property
    def dim(self) -> int:
        return self.tau.shape[1]

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioSpec":
        if not isinstance(doc, dict):
            raise ValueError(f"top level must be a JSON object, got "
                             f"{type(doc).__name__}")
        _require(doc.get("format") == FORMAT, "format", f"{FORMAT!r} (from "
                 f"/1, also delete method, n_weight_samples and "
                 f"barrier.eps_hat)", doc.get("format"))
        known_keys(doc, "", KEYS)
        known_keys(_field(doc, "uncertainty"), "uncertainty",
                   ("n_parameters", "box", "region", "weights"))
        tau = _rows(doc, "tau")
        N = len(tau)  # N is read off tau
        _require(N >= 2, "tau", "rows of coordinates for at least 2 agents",
                 tau.tolist())
        r = _field(doc, "uncertainty.n_parameters")
        _require(_is_int(r) and r >= 0, "uncertainty.n_parameters",
                 "an integer >= 0", r)
        # the weights by monomial, in order of first appearance in the file
        coeffs: dict = {}
        seen = np.zeros((N, N), dtype=bool)
        index = {}
        for k, w in enumerate(_items(doc, "uncertainty.weights")):
            where = f"uncertainty.weights[{k}]"
            i, j = _get(w, where, "i"), _get(w, where, "j")
            _require(_is_int(i) and _is_int(j) and 0 <= i < N and 0 <= j < N
                     and i != j and not seen[i, j], where, f"a pair i, j of "
                     f"distinct agent indices in [0, {N}) not listed before",
                     (i, j))
            seen[i, j] = seen[j, i] = True
            index[min(i, j), max(i, j)] = k
            for e, c in _terms(r, w, where, ("i", "j", "terms")).items():
                C = coeffs.setdefault(e, np.zeros((N, N)))
                C[i, j] = C[j, i] = c
        region = _items(doc, "uncertainty.region")
        rows: dict = {}
        for k, s in enumerate(region):
            for e, c in _terms(r, s, f"uncertainty.region[{k}]",
                               ("terms",)).items():
                rows.setdefault(e, np.zeros((len(region), 1)))[k, 0] = c
        box = _items(doc, "uncertainty.box")
        for k, b in enumerate(box):
            _require(isinstance(b, list) and len(b) == 2 and all(
                _is_number(v) and math.isfinite(v) for v in b),
                f"uncertainty.box[{k}]", "two finite numbers", b)
        adj = UncertainAdjacency(
            N=N, entries=MatrixPolynomial(N, N, r, coeffs),
            omega=MatrixPolynomial(len(region), 1, r, rows),
            box=[tuple(map(float, b)) for b in box])
        _check_reach(adj, index)
        formation = np.zeros((N, N), dtype=bool)
        for k, e in enumerate(_items(doc, "formation_edges")):
            _require(isinstance(e, list) and len(e) == 2 and all(
                _is_int(v) and 0 <= v < N for v in e) and e[0] != e[1],
                f"formation_edges[{k}]",
                f"a pair [i, j] of distinct agent indices in [0, {N})", e)
            formation[min(e), max(e)] = True
        given = {key: doc[key] for key in KEYS[KEYS.index("barrier"):]
                 if key in doc}
        for key in ("jitter_pos", "jitter_vel", "T_end", "dt"):
            if key in given:
                given[key] = _number(doc, key)
        if given.get("conv_tol") is not None:
            given["conv_tol"] = _number(doc, "conv_tol")
        if given.get("barrier") is not None:  # tune_mu's caps may be inf
            given["barrier"] = _numbers(doc, "barrier", BarrierParams,
                                        positive=True)
        return cls(
            name=_field(doc, "name"),
            geometry=_numbers(doc, "geometry", AgentGeometry,
                              positive=False),
            tau=tau,
            positions=_rows(doc, "positions"),
            velocities=_rows(doc, "velocities"),
            formation=formation,
            adjacency=adj,
            **given,
        )

    @classmethod
    def load(cls, path) -> "ScenarioSpec":
        return cls.from_dict(json.loads(Path(path).read_text()))


BUILTIN = ("six_agent", "fifty_agent", "adversarial")


def builtin_path(name: str) -> Path:
    """Path of a scenario file shipped with the package."""
    if name not in BUILTIN:
        raise KeyError(
            f"unknown scenario {name!r}; shipped: {sorted(BUILTIN)}")
    return Path(__file__).parent / "scenarios" / f"{name}.json"
