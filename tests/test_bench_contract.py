"""The benchmark's contract with the package.

bench/tracer.py lists in PATCHES every (owner, name) it replaces with a
timing wrapper.  A refactor that renames or moves one of them breaks the
benchmark, so each entry must resolve here the way Tracer.install looks it
up: through the class __dict__ for a class, through getattr for a module.

The tracer attributes time by those names, so the simulate loop must reach
step, update_edges and zone_pairs_at through robustform.simulate's module
globals once per step: a refactor that inlines or bypasses one of them
would leave its span at zero without failing anything else.

bench/oracle.py re-checks every certificate the benchmark writes, from the
scenario JSON alone.  A change to the certificate format or to the certified
quantity that the oracle does not know of fails the benchmark, so a
certificate written by `certify six_agent` must pass it here.

bench/fifty_agent_certificate.json is the stored certificate the benchmark
replays.  Its Gram offsets delta are coordinates in the null basis of the
Gram expansion, so a change to the order or the signs of that basis breaks
the replay; its pencil margin is pinned here.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from robustform.certifier import (Certificate, sample_lambda2,
                                  verify_certificate)
from robustform.cli import main
from robustform.scenario import ScenarioSpec, builtin_path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = _load("tracer")
oracle = _load("oracle")


@pytest.mark.parametrize("where,name", [(w, n) for w, n, _ in tracer.PATCHES],
                         ids=[f"{w}.{n}" for w, n, _ in tracer.PATCHES])
def test_patched_name_resolves(where, name):
    owner = tracer._resolve(where)
    if isinstance(owner, type):
        assert name in owner.__dict__, f"{where} defines no {name}"
        raw = owner.__dict__[name]
    else:
        assert hasattr(owner, name), f"{where} binds no {name}"
        raw = getattr(owner, name)
    assert callable(raw) or isinstance(raw, classmethod)


def test_tracer_sees_every_step_of_a_run():
    from robustform import simulate
    t = tracer.Tracer()
    t.install()
    try:
        res = simulate.run(ScenarioSpec.load(builtin_path("six_agent")),
                           seed=0, T_end=0.1)
    finally:
        t.uninstall()
    steps = res.metrics["n_steps_taken"]
    assert steps == 20
    # the initial edge and zone masks, then one of each per step
    assert (t.calls["simulate.monitor"], t.calls["simulate.integrate"],
            t.calls["netgraph.update_edges"],
            t.calls["barrier.zone_pairs_at"]) == (1, steps, steps + 1,
                                                   steps + 1)
    assert t.self_s["simulate.integrate"] > 0.0


def test_six_agent_certificate_passes_the_oracle(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["certify", "six_agent", "--samples", "500",
                 "--out", str(out)]) == 0
    adj = ScenarioSpec.load(builtin_path("six_agent")).adjacency
    lam = sample_lambda2(adj, n_samples=500, seed=0)
    fails, info = oracle.certificate_checks(
        oracle.ScenarioOracle(builtin_path("six_agent")),
        json.loads(out.read_text()), lam.thetas, lam.values,
        np.random.default_rng([0, 2017]), n_samples=1000)
    assert fails == []
    assert 0.0 < info["lambda2_bound"] <= info["oracle_min_lambda2"]


def test_fifty_agent_certificate_passes_the_oracle(tmp_path):
    # the certificate certify writes for fifty_agent, solved in the Haar
    # basis and mapped into the Helmert frame that the oracle reads
    out = tmp_path / "cert.json"
    assert main(["certify", "fifty_agent", "--samples", "500",
                 "--out", str(out)]) == 0
    adj = ScenarioSpec.load(builtin_path("fifty_agent")).adjacency
    lam = sample_lambda2(adj, n_samples=500, seed=0)
    fails, info = oracle.certificate_checks(
        oracle.ScenarioOracle(builtin_path("fifty_agent")),
        json.loads(out.read_text()), lam.thetas, lam.values,
        np.random.default_rng([0, 2017]), n_samples=1000)
    assert fails == []
    assert 0.0 < info["lambda2_bound"] <= info["oracle_min_lambda2"]


def test_stored_fifty_agent_certificate_passes_the_oracle():
    # the check every ring50 round makes: fifty_agent takes sample_lambda2's
    # band route, six_agent above its dense one
    adj = ScenarioSpec.load(builtin_path("fifty_agent")).adjacency
    lam = sample_lambda2(adj, n_samples=500, seed=0)
    fails, info = oracle.certificate_checks(
        oracle.ScenarioOracle(builtin_path("fifty_agent")),
        json.loads((BENCH / "fifty_agent_certificate.json").read_text()),
        lam.thetas, lam.values, np.random.default_rng([0, 2017]),
        n_samples=1000)
    assert fails == []
    assert 0.0 < info["lambda2_bound"] <= info["oracle_min_lambda2"]


# Algebraic pencil margin of the stored certificate, as replayed with the
# null basis built one dense matrix per element.
STORED_PENCIL_MARGIN = 3.019996667139514e-10


def test_stored_fifty_agent_certificate_replays():
    cert = Certificate.load(BENCH / "fifty_agent_certificate.json")
    adj = ScenarioSpec.load(builtin_path("fifty_agent")).adjacency
    rep = verify_certificate(cert, adj, n_samples=200)
    assert rep.ok, rep.failures
    assert rep.min_eigenvalues[-1] == pytest.approx(STORED_PENCIL_MARGIN,
                                                    rel=0, abs=1e-12)
