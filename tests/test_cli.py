"""Command-line contract: exit codes, artifacts, determinism."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import robustform
from robustform import certifier, simulate
from robustform.certifier import Certificate, certify, verify_certificate
from robustform.cli import main
from robustform.scenario import BUILTIN, MAX_STEPS, ScenarioSpec, \
    builtin_path
from robustform.simulate import PreconditionError, run
from robustform.netgraph import AgentGeometry


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as err:
        return int(err.code)


def pair_scenario_doc(tau_x=3.0, positions=None, barrier=None,
                      weight=1.0):
    geom = AgentGeometry(r_a=0.75, r_c=0.9375, r_z=2.5, r_s=8.0,
                         d_s=1.875, eps=0.1)
    tau = np.array([[0.0, 0.0], [tau_x, 0.0]])
    adj = oracles.adjacency(2, {(0, 1): {(): weight}})
    return ScenarioSpec(
        name="pair", geometry=geom, tau=tau,
        positions=tau.copy() if positions is None
        else np.asarray(positions, dtype=float),
        velocities=np.zeros((2, 2)),
        formation=oracles.pair_mask(2, [(0, 1)]), adjacency=adj,
        barrier=barrier, T_end=1.0)


def test_check_shipped_scenarios_pass(capsys):
    for name in ("six_agent", "fifty_agent", "adversarial"):
        assert run_cli("check", name) == 0
    out = capsys.readouterr().out
    assert "A1: PASS" in out


def test_check_fifty_agent_lists_the_pairs_of_its_skipped_assumption(
        capsys):
    # a skipped assumption still lists every violating pair: the ring's 50
    # formation pairs, in row-major order
    assert run_cli("check", "fifty_agent") == 0
    pairs = [(0, 1), (0, 49)] + [(i, i + 1) for i in range(1, 49)]
    assert capsys.readouterr().out.splitlines() == [
        "scenario fifty_agent: 50 agents, 50 formation edges, 1 uncertain "
        "parameters",
        "A1: PASS",
        "A2: PASS",
        "A3: SKIPPED (ring spacing 3.766 with r_s=5 leaves no barrier "
        "separation margin; collision zone is unreachable here because the "
        "edge barrier caps formation error at 1.234)",
    ] + [f"  pair ({i},{j}): r_s - 3.7674 = 1.2326 not > d_s + 3.7674 = "
         f"5.6424" for i, j in pairs] + ["check: OK"]


def test_run_names_the_failed_assumption_and_its_pair():
    sc = ScenarioSpec.load(builtin_path("six_agent"))
    tau = sc.tau.copy()
    tau[1][0] += 3
    with pytest.raises(PreconditionError) as err:
        run(dataclasses.replace(sc, tau=tau), seed=0)
    assert str(err.value) == (
        "setup assumptions failed:\n"
        "  A1: PASS\n"
        "  A2: PASS\n"
        "  A3: FAIL\n"
        "    pair (1,2): r_s - 5.8000 = 2.2000 not > d_s + 5.8000 = 7.6750")


def test_check_names_violating_pair(tmp_path, capsys):
    doc = pair_scenario_doc(tau_x=9.0)  # beyond r_s - eps
    p = tmp_path / "bad.json"
    oracles.save_scenario(doc, p)
    assert run_cli("check", str(p)) == 1
    out = capsys.readouterr().out
    assert "A1: FAIL" in out
    assert "(0,1)" in out


def test_check_reports_box_corners_inside_the_region(tmp_path, capsys):
    # the region 3 - t1^2 - t2^2 >= 0 holds strictly at all four corners
    # of the box [-1, 1]^2, listed in meshgrid order
    doc = json.loads(builtin_path("six_agent").read_text())
    doc["uncertainty"]["region"][0]["terms"][2]["coeff"] = 3.0
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(doc))
    assert run_cli("check", str(p)) == 1
    corners = ["[-1.0, -1.0]", "[-1.0, 1.0]", "[1.0, -1.0]", "[1.0, 1.0]"]
    assert capsys.readouterr().out.splitlines() == [
        "scenario six_agent: 6 agents, 6 formation edges, "
        "2 uncertain parameters", "A1: PASS", "A2: PASS", "A3: PASS"] + [
        f"box: box corner {c} lies strictly inside the parameter region; "
        f"the sampling box may truncate it" for c in corners] + [
        "check: FAILED"]


def test_check_many_parameters_exits_2_without_a_traceback(tmp_path):
    # six_agent over 30 parameters: 2^30 box corners would take 8 GiB, so
    # the child runs under a 3 GiB address-space limit
    doc = json.loads(builtin_path("six_agent").read_text())
    unc = doc["uncertainty"]
    r = 30
    unc["n_parameters"] = r
    unc["box"] = [[-1.0, 1.0]] * r
    for rec in unc["weights"] + unc["region"]:
        for term in rec["terms"]:
            term["exponents"] += [0] * (r - 2)
    p = tmp_path / "many.json"
    p.write_text(json.dumps(doc))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    path = [str(Path(robustform.__file__).parents[1]),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-m", "robustform.cli", "check", str(p)],
        capture_output=True, text=True, env=env, preexec_fn=limit_memory)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (f"error: {p}: uncertainty.n_parameters: 30 "
                           f"parameters; check tests the 2^r box corners "
                           f"for at most 16\n")
    assert proc.stdout == ""


def test_check_malformed_file_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert run_cli("check", str(p)) == 2
    assert run_cli("check", str(tmp_path / "missing.json")) == 2


def test_check_wrong_format_exits_2(tmp_path):
    p = tmp_path / "odd.json"
    p.write_text(json.dumps({"format": "something-else/9"}))
    assert run_cli("check", str(p)) == 2


@pytest.mark.parametrize("command", ["check", "certify", "simulate"])
@pytest.mark.parametrize("text", ["[1, 2]", '"hello"', "null", "3"])
def test_top_level_not_an_object_exits_2(tmp_path, capsys, command, text):
    p = tmp_path / "odd.json"
    p.write_text(text)
    args = [] if command == "check" else ["--out", str(tmp_path / "out")]
    assert run_cli(command, str(p), *args) == 2
    err = capsys.readouterr().err
    assert "top level must be a JSON object" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_shipped_files_are_the_builtin_scenarios():
    # the packaged files are the only definition of a shipped scenario:
    # the same set of names, each file exactly what its spec writes back
    files = sorted(builtin_path("six_agent").parent.glob("*.json"))
    assert sorted(p.stem for p in files) == sorted(BUILTIN)
    for p in files:
        text = json.dumps(oracles.scenario_dict(ScenarioSpec.load(p)),
                          indent=2) + "\n"
        assert text.encode() == p.read_bytes(), p.name


BAD_INDICES = {"index_out_of_range": {"j": 9},
               "negative_index": {"i": -1, "j": 2},
               "fractional_index": {"i": 0.5, "j": 2},
               "self_loop": {"j": 0}}


@pytest.mark.parametrize("case", [*BAD_INDICES, "infinite_coefficient",
                                  "duplicate_pair"])
def test_check_bad_weight_record_exits_2(tmp_path, capsys, case):
    doc = json.loads(builtin_path("six_agent").read_text())
    weights = doc["uncertainty"]["weights"]
    w, k = weights[0], 0  # the record for pair (0, 1)
    if case == "duplicate_pair":
        weights.append(dict(w, i=1, j=0))
        k = len(weights) - 1
    elif case == "infinite_coefficient":
        w["terms"][0]["coeff"] = float("inf")
    else:
        w.update(BAD_INDICES[case])
    p = tmp_path / "weights.json"
    p.write_text(json.dumps(doc))
    assert run_cli("check", str(p)) == 2
    assert f"uncertainty.weights[{k}]" in capsys.readouterr().err


def overflowing_scenario(case):
    """six_agent with finite weight records whose Laplacian can overflow:
    in case "diagonal" two weights of 1e308 at agent 0 sum to inf, in case
    "box" a 1e300 theta_1 coefficient meets a box of half-width 1e10."""
    doc = json.loads(builtin_path("six_agent").read_text())
    unc = doc["uncertainty"]
    if case == "diagonal":
        for w in unc["weights"][:2]:  # pairs (0, 1) and (0, 2)
            w["terms"] = [{"exponents": [0, 0], "coeff": 1e308}]
        return doc, "the weights of agent 0, pairs (0, 1), (0, 2)"
    unc["weights"][0]["terms"][0] = {"exponents": [1, 0], "coeff": 1e300}
    unc["box"][0] = [-1e10, 1e10]
    unc["region"] = []
    return doc, "uncertainty.weights[0]: the weight of pair (0, 1)"


@pytest.mark.parametrize("command", [
    ["check"], ["certify", "--samples", "100"], ["simulate", "--T", "0.01"]])
@pytest.mark.parametrize("case", ["diagonal", "box"])
def test_laplacian_that_can_overflow_exits_2(tmp_path, capsys, case,
                                             command):
    # both files used to pass check; certify then raised from the SDP
    # assembly (diagonal) or from the lambda_2 sweep (box), and simulate
    # raised or refused the failed solve's certificate with exit 1
    doc, named = overflowing_scenario(case)
    p = tmp_path / "overflow.json"
    p.write_text(json.dumps(doc))
    out = [] if command == ["check"] else ["--out", str(tmp_path / "o")]
    assert run_cli(command[0], str(p), *command[1:], *out) == 2
    err = capsys.readouterr().err
    assert f"error: {p}: invalid scenario: uncertainty.weights" in err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("where, bad", [
    ("region[0]", "inf"), ("region[0]", "nan"),
    ("box[0]", "inf"), ("box[1]", "-inf"), ("box[1]", "nan")])
def test_check_bad_region_or_box_record_exits_2(tmp_path, capsys, where,
                                                bad):
    # an inf region coefficient used to reach the box-corner check and
    # exit 1 with a message about the sampling box
    doc = json.loads(builtin_path("six_agent").read_text())
    field, k = where[:-3], int(where[-2])
    if field == "region":
        doc["uncertainty"]["region"][k]["terms"][0]["coeff"] = float(bad)
    else:
        doc["uncertainty"]["box"][k][0] = float(bad)
    p = tmp_path / "region.json"
    p.write_text(json.dumps(doc))
    assert run_cli("check", str(p)) == 2
    assert f"uncertainty.{where}" in capsys.readouterr().err


# time-grid and scalar probes that used to end in a traceback (dt 0,
# record_every 0, an unknown method, an infinite n_weight_samples or
# jitter), in "simulate: OK" after 0 steps (dt < 0, --T -1), in a run
# that silently rounded or ignored the value (a fractional or negative
# n_weight_samples, a nan or negative jitter), in "convergence tolerance
# nan was not met" (conv_tol nan), in a raw message that named no field
# (a null number, a string radius, a missing box, a three-index formation
# edge, a string parameter count) or in a run that read true as 1
# (record_every, n_weight_samples).  Then the inputs that exited 0 or 1
# (a fractional, boolean or infinite exponent, a string coefficient, a
# one-agent scenario, a list or a number as assumption_overrides), ended
# in a traceback or exited 2 with a message that named no field (a term
# record, a missing terms or index, a ragged or non-numeric row, a box of
# the wrong size or with an empty interval, a self-loop or out-of-range
# formation edge) or ended in an OverflowError (an integer beyond the range
# of floats).  A field is a key path into the file; MISSING deletes
# the key.  method and n_weight_samples are no longer keys of the format:
# their cases are refused as unknown keys.
MISSING = object()
BAD_SCALAR_FIELDS = {
    "dt_zero": ("dt", 0.0), "dt_negative": ("dt", -0.005),
    "dt_nan": ("dt", float("nan")),
    "T_end_zero": ("T_end", 0.0),
    "T_end_infinite": ("T_end", float("inf")),
    "record_every_zero": ("record_every", 0),
    "record_every_fractional": ("record_every", 2.5),
    "unknown_method": ("method", "rk5"),
    "euler_method": ("method", "euler"),
    "n_weight_samples_infinite": ("n_weight_samples", float("inf")),
    "n_weight_samples_fractional": ("n_weight_samples", 2.5),
    "n_weight_samples_negative": ("n_weight_samples", -3),
    "jitter_pos_infinite": ("jitter_pos", float("inf")),
    "jitter_pos_nan": ("jitter_pos", float("nan")),
    "jitter_pos_negative": ("jitter_pos", -0.5),
    "jitter_vel_infinite": ("jitter_vel", float("inf")),
    "jitter_vel_nan": ("jitter_vel", float("nan")),
    "jitter_vel_negative": ("jitter_vel", -0.5),
    "conv_tol_nan": ("conv_tol", float("nan")),
    "conv_tol_zero": ("conv_tol", 0.0),
    "dt_null": ("dt", None),
    "jitter_pos_null": ("jitter_pos", None),
    "r_s_string": ("geometry.r_s", "8"),
    "box_missing": ("uncertainty.box", MISSING),
    "formation_edge_triple": ("formation_edges[0]", [0, 1, 2]),
    "n_parameters_string": ("uncertainty.n_parameters", "x"),
    "record_every_true": ("record_every", True),
    "n_weight_samples_true": ("n_weight_samples", True),
    "term_exponent_fractional": ("uncertainty.weights[0].terms[0]",
                                 {"exponents": [1.5, 0], "coeff": 0.3}),
    "term_coeff_string": ("uncertainty.weights[0].terms[0]",
                          {"exponents": [1, 0], "coeff": "2"}),
    "term_coeff_nonnumeric": ("uncertainty.weights[0].terms[1]",
                              {"exponents": [0, 1], "coeff": "x"}),
    "region_exponent_true": ("uncertainty.region[0].terms[0]",
                             {"exponents": [True, 0], "coeff": -1.0}),
    "term_exponent_infinite": ("uncertainty.weights[0].terms[0]",
                               {"exponents": [float("inf"), 0],
                                "coeff": 0.3}),
    "term_exponents_short": ("uncertainty.weights[0].terms[2]",
                             {"exponents": [0], "coeff": 1.0}),
    "term_exponent_negative": ("uncertainty.region[0].terms[2]",
                               {"exponents": [0, -1], "coeff": 1.0}),
    "terms_missing": ("uncertainty.weights[1].terms", MISSING),
    "weight_index_missing": ("uncertainty.weights[0].i", MISSING),
    "tau_row_ragged": ("tau[1]", [0.0]),
    "positions_row_string": ("positions[2]", [0.0, "1"]),
    "velocities_row_null": ("velocities[0]", [None, 0.0]),
    "one_agent": ("tau", [[0.0, 0.0]]),
    "box_interval_count": ("uncertainty.box", [[-1.0, 1.0]]),
    "box_interval_empty": ("uncertainty.box", [[1.0, -1.0], [-1.0, 1.0]]),
    "overrides_list": ("assumption_overrides", ["A1"]),
    "override_reason_number": ("assumption_overrides", {"A1": 3}),
    "formation_edge_self_loop": ("formation_edges[0]", [1, 1]),
    "formation_edge_out_of_range": ("formation_edges[0]", [0, 99]),
    "dt_huge_integer": ("dt", 10 ** 400),
    "term_coeff_huge_integer": ("uncertainty.weights[0].terms[0]",
                                {"exponents": [1, 0], "coeff": 10 ** 400}),
    # unknown keys, one at each level of the document, were dropped
    # without notice: a "DT" left the run at the default step
    "unknown_top_level_key": ("DT", 0.01),
    "unknown_geometry_key": ("geometry.R_s", 8.0),
    "unknown_uncertainty_key": ("uncertainty.n_params", 2),
    "unknown_weight_key": ("uncertainty.weights[0].k", 2),
    "unknown_region_key": ("uncertainty.region[0].degree", 2),
    "unknown_term_key": ("uncertainty.weights[0].terms[0].coef", 0.3),
    "unknown_barrier_key": ("barrier.eps_hat", 0.05),
    "unknown_assumption": ("assumption_overrides.a3", "x")}


def edit_field(doc, path, value):
    """Set the entry at a key path such as "geometry.r_s" or
    "formation_edges[0]", or delete it when value is MISSING."""
    keys = [int(k) if k.isdigit() else k
            for k in re.findall(r"[^.\[\]]+", path)]
    for key in keys[:-1]:
        doc = doc[key]
    if value is MISSING:
        del doc[keys[-1]]
    else:
        doc[keys[-1]] = value


@pytest.mark.parametrize("case", list(BAD_SCALAR_FIELDS))
def test_simulate_bad_time_grid_field_exits_2(tmp_path, capsys, case):
    field, value = BAD_SCALAR_FIELDS[case]
    doc = json.loads(builtin_path("six_agent").read_text())
    if field.startswith("barrier."):
        doc["barrier"] = {"mu1": 300.0, "mu2": 300.0}
    edit_field(doc, field, value)
    p = tmp_path / "grid.json"
    p.write_text(json.dumps(doc))
    assert run_cli("check", str(p)) == 2
    assert run_cli("simulate", str(p), "--out", str(tmp_path / "r")) == 2
    assert run_cli("certify", str(p), "--out", str(tmp_path / "c.json")) == 2
    err = capsys.readouterr().err
    assert err.count(f"{field}:") == 3 and "Traceback" not in err
    assert not (tmp_path / "r").exists()
    assert not (tmp_path / "c.json").exists()


def test_version_1_file_names_the_keys_to_delete(tmp_path, capsys):
    doc = json.loads(builtin_path("adversarial").read_text())
    doc.update({"format": "formation-scenario/1", "method": "rk4",
                "n_weight_samples": 16})
    doc["barrier"]["eps_hat"] = 0.05
    p = tmp_path / "old.json"
    p.write_text(json.dumps(doc))
    assert run_cli("check", str(p)) == 2
    assert capsys.readouterr().err == (
        f"error: {p}: invalid scenario: format: must be "
        f"'formation-scenario/2' (from /1, also delete method, "
        f"n_weight_samples and barrier.eps_hat), got "
        f"'formation-scenario/1'\n")


# The sensitivity test perturbs every numeric key of the shipped scenarios:
# the value each key takes where doubling it (or 0 to 1) would make an
# invalid file or land where the key has no effect.  A perturbed file must
# still parse, except for the keys of REFUSED.
PERTURBED = {
    "geometry.r_a": 1.0,
    "geometry.r_c": 1.0,
    "geometry.r_z": 2.7,     # d_s < r_z < r_s - eps
    "geometry.d_s": 1.9,     # d_s < r_z
    "geometry.eps": 3.0,     # r_s - eps = 5 leaves the hexagon's opposite
                             # pairs, 5.6 apart, out of the edges at start
    "T_end": 0.05,           # the base horizon is 0.1 (see SENSITIVITY_BASE)
    "record_every": 10,
    "formation_edges[][]": 2,
    "uncertainty.n_parameters": 3,
    "uncertainty.weights[].i": 2,
    "uncertainty.weights[].j": 2,
    "uncertainty.region[].terms[].exponents[]": 4,
}
# Keys that no valid value of their own changes, tested by the exit 2 of a
# value that breaks their rule: r_a and r_c only bound the other radii
# (0 < r_a <= r_c, d_s >= 2 r_c); n_parameters fixes the length of every
# exponent list and of the box; six_agent lists every pair once, so a
# weight's i or j can only repeat a pair
REFUSED = {"geometry.r_a", "geometry.r_c", "uncertainty.n_parameters",
           "uncertainty.weights[].i", "uncertainty.weights[].j"}
# keys documented as metadata: name names the output files only
METADATA = {"name"}
# six_agent at a horizon of 20 steps, so that T_end and conv_tol count;
# adversarial, whose barrier block pins the caps, trips its safety monitor
# at t = 0.228 of its 2.0
SENSITIVITY_BASE = {"six_agent": {"T_end": 0.1}, "adversarial": {}}


def numeric_leaves(doc, path=""):
    """(key path, value) of every number in doc, in document order."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from numeric_leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from numeric_leaves(value, f"{path}[{k}]")
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path, doc


def command_outputs(work, capsys, doc):
    """Exit code, stdout and stderr of check, certify and simulate on doc,
    run in the new directory work with relative paths, and the bytes of
    every file they write but manifest.json, which only echoes its input."""
    work.mkdir()
    os.chdir(work)
    Path("scenario.json").write_text(json.dumps(doc))
    codes = [run_cli("check", "scenario.json"),
             run_cli("certify", "scenario.json", "--samples", "20",
                     "--out", "certificate.json"),
             run_cli("simulate", "scenario.json", "--out", "runs")]
    files = {str(p): p.read_bytes() for p in sorted(Path().rglob("*"))
             if p.is_file() and p.name not in ("manifest.json",
                                               "scenario.json")}
    return codes, capsys.readouterr(), files


def test_every_numeric_scenario_key_changes_an_output(tmp_path, capsys,
                                                       monkeypatch):
    # barrier.eps_hat of formation-scenario/1 changed only manifest.json
    monkeypatch.chdir(tmp_path)
    seen, unchanged = set(METADATA), []
    for name, changes in SENSITIVITY_BASE.items():
        doc = {**json.loads(builtin_path(name).read_text()), **changes}
        base = command_outputs(tmp_path / name, capsys, doc)
        for path, value in numeric_leaves(doc):
            key = re.sub(r"\[\d+\]", "[]", path)
            if key in seen:
                continue
            seen.add(key)
            new = copy.deepcopy(doc)
            edit_field(new, path, PERTURBED.get(key, 2 * value or 1))
            got = command_outputs(tmp_path / f"{name}.{key}", capsys, new)
            ok = got[0] == [2, 2, 2] if key in REFUSED \
                else 2 not in got[0] and got != base
            if not ok:
                unchanged.append((name, path, got[0]))
    assert unchanged == []
    assert set(PERTURBED) <= seen


@pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0])
@pytest.mark.parametrize("key", ["mu1", "mu2"])
def test_scenario_barrier_caps_must_be_finite_and_positive(tmp_path, capsys,
                                                          key, value):
    # an infinite cap or margin used to pass check and run; a nan or zero
    # one exited 2 without naming the key
    doc = json.loads(builtin_path("adversarial").read_text())
    doc["barrier"][key] = value
    p = tmp_path / "caps.json"
    p.write_text(json.dumps(doc))
    assert run_cli("check", str(p)) == 2
    assert run_cli("simulate", str(p), "--T", "0.01",
                   "--out", str(tmp_path / "r")) == 2
    assert run_cli("certify", str(p), "--out", str(tmp_path / "c.json")) == 2
    err = capsys.readouterr().err
    assert err.count(f"barrier.{key}: must be finite and > 0") == 3
    assert "Traceback" not in err and not (tmp_path / "r").exists()


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
@pytest.mark.parametrize("key", ["r_a", "r_c", "r_z", "r_s", "d_s", "eps"])
def test_scenario_geometry_must_be_finite(tmp_path, capsys, key, value):
    # an infinite r_s used to pass check and run to "simulate: OK" with a
    # nan energy; the other cases exited 2 without naming the key
    doc = json.loads(builtin_path("adversarial").read_text())
    doc["geometry"][key] = value
    p = tmp_path / "geometry.json"
    p.write_text(json.dumps(doc))
    assert run_cli("check", str(p)) == 2
    assert run_cli("simulate", str(p), "--T", "0.05",
                   "--out", str(tmp_path / "r")) == 2
    assert run_cli("certify", str(p), "--out", str(tmp_path / "c.json")) == 2
    err = capsys.readouterr().err
    assert err.count(f"geometry.{key}: must be finite") == 3
    assert "Traceback" not in err and not (tmp_path / "r").exists()


def test_simulate_never_reports_ok_on_an_infinite_energy(tmp_path, capsys):
    # a finite velocity of 1e200 overflows the kinetic energy at t = 0,
    # which used to end in "simulate: OK" with final_W inf
    doc = json.loads(builtin_path("six_agent").read_text())
    doc["velocities"][0][0] = 1e200
    p = tmp_path / "fast.json"
    p.write_text(json.dumps(doc))
    with np.errstate(over="ignore"):
        code = run_cli("simulate", str(p), "--T", "0", "--unsafe",
                       "--out", str(tmp_path / "r"))
    assert code == 4
    assert "invariant violation: non_finite at t=0" in capsys.readouterr().err
    # its energy.csv reads 0,inf: plot used to end in a traceback
    assert run_cli("plot", str(tmp_path / "r" / "six_agent_seed0")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read run directory")
    assert "energy.csv holds a number that is not finite" in err


def test_certify_overflowing_weights_is_a_solver_failure(tmp_path, capsys):
    # weights of 1e307 overflow the solver's duality gap, which used to
    # print "RuntimeWarning: overflow encountered in reduce" (an error
    # under the suite's filterwarnings) before the exit 3
    doc = json.loads(builtin_path("six_agent").read_text())
    for w in doc["uncertainty"]["weights"]:
        for term in w["terms"]:
            term["coeff"] *= 1e307
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    assert run_cli("certify", str(p), "--samples", "50",
                   "--out", str(tmp_path / "c.json")) == 3
    out, err = capsys.readouterr()
    assert out == "solver failure: SdpStatus.NUMERICAL_FAILURE\n"
    assert err == ""


def test_term_records_of_equal_exponents_add_up():
    # records of one monomial add up; records that cancel, or leave no
    # more than COEFF_CLEANUP, store no monomial
    doc = json.loads(builtin_path("six_agent").read_text())
    before = ScenarioSpec.from_dict(doc).adjacency
    doc["uncertainty"]["weights"][0]["terms"] += [
        {"exponents": [1, 1], "coeff": 1.0},
        {"exponents": [1, 0], "coeff": 0.25},
        {"exponents": [1, 1], "coeff": -1.0},
        {"exponents": [0, 3], "coeff": 1.0},
        {"exponents": [0, 3], "coeff": -(1.0 - 1e-16)}]
    doc["uncertainty"]["region"][0]["terms"] += [
        {"exponents": [0, 0], "coeff": 0.5}]
    after = ScenarioSpec.from_dict(doc).adjacency
    assert after.entries.terms(0, 1) == {
        (1, 0): 0.3 + 0.25, (0, 1): -0.25, (0, 0): 1.0}
    assert after.entries.terms(1, 0) == after.entries.terms(0, 1)
    assert list(after.entries.coeffs) == list(before.entries.coeffs)
    assert after.omega.terms(0, 0) == {(2, 0): -1.0, (0, 2): -1.0,
                                       (0, 0): 1.5}


SHIPPED_DOCS = {name: json.loads(builtin_path(name).read_text())
                for name in BUILTIN}


def key_paths(doc, path=()):
    """The key path of every value in doc below the top level, each a
    tuple of object keys and list indices."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from key_paths(value, path + (key,))


SHIPPED_PATHS = {name: list(key_paths(doc))
                 for name, doc in SHIPPED_DOCS.items()}
OTHER_TYPES = [None, True, "x", 7, 2.5, [], {}]


@st.composite
def mutated_scenarios(draw):
    """A shipped scenario document with one value deleted, replaced by
    another JSON type or a non-finite number, or, for an integer, replaced
    by an index out of range."""
    name = draw(st.sampled_from(sorted(BUILTIN)))
    doc = copy.deepcopy(SHIPPED_DOCS[name])
    *parents, key = draw(st.sampled_from(SHIPPED_PATHS[name]))
    holder = doc
    for k in parents:
        holder = holder[k]
    old = holder[key]
    kinds = ["delete", "retype", "nonfinite"]
    if isinstance(old, int) and not isinstance(old, bool):
        kinds.append("index")
    kind = draw(st.sampled_from(kinds))
    if kind == "delete":
        del holder[key]
    elif kind == "retype":
        holder[key] = draw(st.sampled_from(
            [v for v in OTHER_TYPES if type(v) is not type(old)]))
    elif kind == "nonfinite":
        holder[key] = draw(st.sampled_from(
            [math.nan, math.inf, -math.inf]))
    else:
        holder[key] = draw(st.sampled_from([-1, len(doc["tau"])]))
    return doc


@settings(derandomize=True, database=None, max_examples=200,
          deadline=None)
@given(mutated_scenarios())
def test_check_mutated_scenario_exits_with_a_documented_code(
        tmp_path_factory, doc):
    # check only: a mutated degree or horizon can make certify or simulate
    # run for a very long time
    p = tmp_path_factory.mktemp("mutated") / "scenario.json"
    p.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert run_cli("check", str(p)) in (0, 1, 2)


# the mutations of bounded_mutations, by name; DELETE removes the value
DELETE = object()
MUTATIONS = {"delete": DELETE, "null": None, "string": "x", "nan": math.nan,
             "negative": -3, "huge": 10 ** 6, "nested_empty": [[]]}
# the exit codes each command documents
EXIT_CODES = {"check": {0, 1, 2}, "certify": {0, 1, 2, 3},
              "simulate": {0, 1, 2, 4, 5}, "plot": {0, 2}}


def mutate(doc, path, value):
    """Delete the value at a key path of doc (see key_paths) if value is
    DELETE, else replace it by a copy of value."""
    *parents, key = path
    for k in parents:
        doc = doc[k]
    if value is DELETE:
        del doc[key]
    else:
        doc[key] = copy.deepcopy(value)


@st.composite
def bounded_mutations(draw):
    """A shipped scenario document with the value at one key path, at any
    depth, deleted or replaced by one of MUTATIONS."""
    name = draw(st.sampled_from(sorted(BUILTIN)))
    doc = copy.deepcopy(SHIPPED_DOCS[name])
    mutate(doc, draw(st.sampled_from(SHIPPED_PATHS[name])),
           MUTATIONS[draw(st.sampled_from(sorted(MUTATIONS)))])
    return doc


@settings(derandomize=True, database=None, max_examples=100,
          deadline=None)
@given(bounded_mutations())
def test_commands_on_a_mutated_scenario_exit_with_a_documented_code(
        tmp_path_factory, doc):
    # check, certify and simulate in process, bounded by a short horizon,
    # a few samples and the relaxation's variable limit: each exits with a
    # code it documents, and writes only to the outputs it was given
    base = tmp_path_factory.mktemp("mutated")
    for sub in ("in", "cwd", "out"):
        (base / sub).mkdir()
    p = base / "in" / "scenario.json"
    p.write_text(json.dumps(doc))
    commands = [("check", []),
                ("certify", ["--samples", "20",
                             "--out", str(base / "out" / "c.json")]),
                ("simulate", ["--T", "0.02",
                              "--out", str(base / "out" / "runs")])]
    cwd = os.getcwd()
    os.chdir(base / "cwd")
    try:
        for command, args in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = run_cli(command, str(p), *args)
            assert code in EXIT_CODES[command], (command, err.getvalue())
            assert "Traceback" not in err.getvalue()
    finally:
        os.chdir(cwd)
    assert os.listdir(base / "cwd") == []
    assert os.listdir(base / "in") == ["scenario.json"]


CHARTS = {"trajectories.svg", "min_distance.svg", "velocity_diff.svg",
          "energy.svg"}


@pytest.fixture(scope="module")
def adversarial_run_dir(tmp_path_factory):
    """A short adversarial run directory, the base of the plot probe."""
    out = tmp_path_factory.mktemp("plot_base")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli("simulate", "adversarial", "--T", "0.05",
                       "--out", str(out)) == 0
    return out / "adversarial_seed0"


@settings(derandomize=True, database=None, max_examples=100,
          deadline=None)
@given(st.data())
def test_plot_on_a_mutated_run_directory_exits_with_a_documented_code(
        tmp_path_factory, adversarial_run_dir, data):
    # one cell of a CSV file or one manifest value deleted or replaced by
    # one of MUTATIONS or inf: plot exits 0 or 2 and writes no file but
    # its charts
    base = tmp_path_factory.mktemp("plot")
    (base / "cwd").mkdir()
    run_dir = shutil.copytree(adversarial_run_dir, base / "run")
    name = data.draw(st.sampled_from(
        ["trajectory.csv", "energy.csv", "manifest.json"]))
    value = data.draw(st.sampled_from([math.inf, *MUTATIONS.values()]))
    path = run_dir / name
    if name == "manifest.json":
        doc = json.loads(path.read_text())
        mutate(doc, data.draw(st.sampled_from(list(key_paths(doc)))), value)
        path.write_text(json.dumps(doc))
    else:
        rows = [row.split(",") for row in path.read_text().splitlines()]
        line = data.draw(st.integers(0, len(rows) - 1))
        column = data.draw(st.integers(0, len(rows[line]) - 1))
        mutate(rows, (line, column), "" if value is None else
               value if value is DELETE else str(value))
        path.write_text("".join(",".join(row) + "\n" for row in rows))
    before = set(os.listdir(run_dir))
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(base / "cwd")
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = run_cli("plot", str(run_dir))
    finally:
        os.chdir(cwd)
    assert code in EXIT_CODES["plot"], err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert set(os.listdir(run_dir)) - before <= CHARTS
    assert os.listdir(base / "cwd") == []


@pytest.mark.parametrize("exponent", [40, 10 ** 6])
def test_relaxation_above_the_variable_limit_exits_2(tmp_path, capsys,
                                                     exponent):
    # six_agent with the exponent of its first weight term raised: check
    # builds no relaxation and passes; certify and simulate refuse it
    # before building it, and write nothing
    doc = json.loads(builtin_path("six_agent").read_text())
    doc["uncertainty"]["weights"][0]["terms"][0]["exponents"] = [exponent, 0]
    p = tmp_path / "deep.json"
    p.write_text(json.dumps(doc))
    assert run_cli("check", str(p)) == 0
    capsys.readouterr()
    d_H = exponent // 2
    n_vars = certifier.DegreePlan(d_H, (d_H - 1,)).n_vars(2, 5)
    for argv in (["certify", str(p), "--out", str(tmp_path / "c.json")],
                 ["simulate", str(p), "--out", str(tmp_path / "runs")]):
        assert run_cli(*argv) == 2
        assert capsys.readouterr() == ("", (
            f"error: {p}: degree plan d_H={d_H} d_R=[{d_H - 1}] asks for "
            f"{n_vars} SDP variables, above the limit of 10000\n"))
    assert sorted(os.listdir(tmp_path)) == ["deep.json"]


# certify's report of each shipped scenario and seed before the path line,
# recorded at the default 10 000 samples
CERTIFY_TEXT = {
    ("six_agent", 0): "c_star = 1.03604295\n"
    "degree plan: d_H=1 d_R=[0]\n"
    "sampled min lambda2 = 5.18394429 over 10000 points\n",
    ("six_agent", 1): "c_star = 1.03604295\n"
    "degree plan: d_H=1 d_R=[0]\n"
    "sampled min lambda2 = 5.18254537 over 10000 points\n",
    ("adversarial", 0): "c_star = 0.199999998\n"
    "degree plan: d_H=0 d_R=[]\n"
    "sampled min lambda2 = 0.1 over 10000 points\n",
    ("adversarial", 1): "c_star = 0.199999998\n"
    "degree plan: d_H=0 d_R=[]\n"
    "sampled min lambda2 = 0.1 over 10000 points\n"}


@pytest.mark.parametrize("name, seed", list(CERTIFY_TEXT))
def test_certify_prints_the_recorded_bound_and_sampled_minimum(
        tmp_path, capsys, name, seed):
    # c* to 9 digits and the sampled lambda_2 minimum, which the region's
    # membership test decides, at the default 10 000 samples
    out = tmp_path / "c.json"
    assert run_cli("certify", name, "--seed", str(seed),
                   "--out", str(out)) == 0
    assert capsys.readouterr() == (
        f"{CERTIFY_TEXT[name, seed]}certificate written to {out}\n"
        f"certify: CONNECTED\n", "")


@pytest.mark.parametrize("flag, value", [
    ("--T", "-1"), ("--T", "nan")])
def test_simulate_bad_time_flag_exits_2(tmp_path, capsys, flag, value):
    assert run_cli("simulate", "six_agent", flag, value,
                   "--out", str(tmp_path / "r")) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_certify_six_agent(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = run_cli("certify", "six_agent", "--samples", "500",
                   "--out", str(out))
    assert code == 0
    text = capsys.readouterr().out
    assert "c_star" in text and "lambda2" in text
    cert = Certificate.load(out)
    assert cert.c_star > 1e-6
    assert cert.n_agents == 6


def test_certify_and_simulate_large_weights(tmp_path, capsys):
    # six_agent with every weight coefficient times 1e4: M^T L M is then
    # symmetric only up to rounding of about 1e-12, which is no reason to
    # fail.  lambda_2, and with it c*, is linear in the weights
    doc = json.loads(builtin_path("six_agent").read_text())
    for record in doc["uncertainty"]["weights"]:
        for term in record["terms"]:
            term["coeff"] *= 1e4
    p = tmp_path / "heavy.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "heavy_cert.json"
    assert run_cli("certify", str(p), "--samples", "500",
                   "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("certify: CONNECTED\n")
    assert "Traceback" not in captured.err
    cert = Certificate.load(out)
    base = certify(ScenarioSpec.load(builtin_path("six_agent")).adjacency)
    assert cert.c_star == pytest.approx(1e4 * base.certificate.c_star,
                                        rel=1e-8)
    adj = ScenarioSpec.load(p).adjacency
    rep = verify_certificate(cert, adj, n_samples=500, seed=0)
    assert rep.ok, rep.failures
    assert run_cli("simulate", str(p), "--T", "0",
                   "--out", str(tmp_path / "runs")) == 0


def test_certify_disconnected_inconclusive(tmp_path, capsys):
    geom = AgentGeometry(r_a=0.75, r_c=0.9375, r_z=2.5, r_s=8.0,
                         d_s=1.875, eps=0.1)
    tau = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    adj = oracles.adjacency(3, {(0, 1): {(): 1.0}})
    sc = ScenarioSpec(name="split", geometry=geom, tau=tau,
                      positions=tau.copy(), velocities=np.zeros((3, 2)),
                      formation=oracles.pair_mask(3, [(0, 1)]),
                      adjacency=adj)
    p = tmp_path / "split.json"
    oracles.save_scenario(sc, p)
    code = run_cli("certify", str(p), "--samples", "200",
                   "--out", str(tmp_path / "c.json"))
    assert code == 1
    assert capsys.readouterr().out.endswith("certify: INCONCLUSIVE\n")


def test_certificate_failing_its_replay_is_refused(tmp_path, capsys,
                                                   monkeypatch):
    # c* raised by 1 after the solve: the stored matrices no longer prove
    # the bound, so neither the certify verdict nor a run may trust them
    solve = certifier.sdp.solve

    def raised(problem, **kwargs):
        sol = solve(problem, **kwargs)
        sol.y[0] += 1.0  # c, the first variable assemble adds
        return sol

    monkeypatch.setattr(certifier.sdp, "solve", raised)
    assert run_cli("certify", "six_agent", "--samples", "500",
                   "--out", str(tmp_path / "c.json")) == 1
    out = capsys.readouterr().out
    assert re.search(r"\ncertificate written to [^\n]*\n"
                     r"refused: Gram identity violated: pencil block "
                     r"eigenvalue -[0-9.e+-]+\ncertify: INCONCLUSIVE\n$",
                     out), out
    with pytest.raises(PreconditionError, match="^no connectivity "
                       "certificate: Gram identity violated: "):
        run(ScenarioSpec.load(builtin_path("six_agent")), T_end=0.1)


@pytest.mark.parametrize("value", ["0", "-5", "1.5", "many"])
def test_certify_bad_sample_count_exits_2(tmp_path, capsys, value):
    out = tmp_path / "c.json"
    assert run_cli("certify", "six_agent", "--samples", value,
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "argument --samples: must be an integer >= 1" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("excess", [1, 10 ** 12])
def test_certify_sample_count_above_the_limit_exits_2(tmp_path, capsys,
                                                      excess):
    # refused before a point is drawn: a trillion points would take 14.6 TiB
    out = tmp_path / "c.json"
    assert run_cli("certify", "six_agent", "--samples",
                   str(certifier.MAX_SAMPLES + excess), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"between 1 and the limit {certifier.MAX_SAMPLES}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_check_refuses_a_horizon_above_the_step_limit(tmp_path, capsys):
    # 2e14 steps of six_agent's dt: check reads the scenario and simulates
    # nothing, so the refusal is the scenario reader's
    doc = oracles.scenario_dict(ScenarioSpec.load(builtin_path("six_agent")))
    doc["T_end"] = 1e12
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert run_cli("check", str(path)) == 2
    err = capsys.readouterr().err
    assert f"T_end: must be at most the limit of {MAX_STEPS} " \
        f"steps of dt = 0.005, got 1000000000000.0" in err
    assert "Traceback" not in err


def test_simulate_horizon_above_the_step_limit_exits_2(tmp_path, capsys,
                                                       monkeypatch):
    # a limit of 100 steps: the scenario's 20 pass, and --T 0.505 asks for
    # 101 steps of dt 0.005, which the run refuses before it certifies
    path, out = tmp_path / "short.json", tmp_path / "runs"
    oracles.save_scenario(dataclasses.replace(
        ScenarioSpec.load(builtin_path("six_agent")), T_end=0.1), path)
    monkeypatch.setattr("robustform.scenario.MAX_STEPS", 100)
    calls = oracles.count_calls(monkeypatch, (simulate, "certify"))
    assert run_cli("simulate", str(path), "--T", "0.505",
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "T_end: must be at most the limit of 100 steps" in err
    assert "Traceback" not in err
    assert calls == {"certify": 0}
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("certify", "--seed", "-1"), ("simulate", "--seed", "-1"),
    ("certify", "--tol", "nan"), ("certify", "--tol", "inf"),
    ("certify", "--tol", "-1"), ("certify", "--tol", "0")])
def test_bad_seed_or_tolerance_exits_2(tmp_path, capsys, command, flag,
                                       value):
    out = tmp_path / "out"
    assert run_cli(command, "six_agent", flag, value,
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be" in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_writes_run_directory(tmp_path):
    code = run_cli("simulate", "six_agent", "--seed", "1", "--T", "2",
                   "--out", str(tmp_path / "runs"))
    assert code == 0
    rd = tmp_path / "runs" / "six_agent_seed1"
    for name in ("trajectory.csv", "energy.csv", "metrics.json",
                 "events.jsonl", "manifest.json", "certificate.json"):
        assert (rd / name).exists(), name
    manifest = json.loads((rd / "manifest.json").read_text())
    assert manifest["format"] == "run-manifest/2"
    assert manifest["seed"] == 1
    assert len(manifest["scenario"]["sha256"]) == 64
    assert manifest["ok"] is True
    header = (rd / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,agent,x0,x1,v0,v1,u0,u1"
    metrics = json.loads((rd / "metrics.json").read_text())
    assert metrics["min_distance"] > 1.875
    for line in (rd / "events.jsonl").read_text().splitlines():
        json.loads(line)


def test_simulate_reruns_byte_identical(tmp_path):
    for sub in ("a", "b"):
        assert run_cli("simulate", "six_agent", "--seed", "4", "--T",
                       "1", "--out", str(tmp_path / sub)) == 0
    for name in ("trajectory.csv", "energy.csv", "metrics.json",
                 "events.jsonl", "manifest.json"):
        a = (tmp_path / "a" / "six_agent_seed4" / name).read_bytes()
        b = (tmp_path / "b" / "six_agent_seed4" / name).read_bytes()
        assert a == b, name


def test_simulate_adversarial_exits_4(tmp_path, capsys):
    code = run_cli("simulate", "adversarial", "--seed", "1",
                   "--out", str(tmp_path / "runs"))
    assert code == 4
    err = capsys.readouterr().err
    assert "safety_distance" in err and "pair" in err
    rd = tmp_path / "runs" / "adversarial_seed1"
    manifest = json.loads((rd / "manifest.json").read_text())
    assert manifest["ok"] is False


def test_simulate_domain_violation_exits_5(tmp_path):
    from robustform.barrier import BarrierParams
    sc = pair_scenario_doc(
        positions=np.array([[3.0, 0.0], [0.0, 0.0]]),
        barrier=BarrierParams(1e6, 1e6))
    p = tmp_path / "swap.json"
    oracles.save_scenario(sc, p)
    code = run_cli("simulate", str(p), "--out", str(tmp_path / "runs"))
    assert code == 5


def test_manifest_records_the_scenario_argument_as_given(tmp_path):
    # the resolved path would differ between two checkouts of the package
    p = tmp_path / "copy.json"
    p.write_bytes(builtin_path("six_agent").read_bytes())
    for arg, sub in [("six_agent", "a"), (str(p), "b")]:
        assert run_cli("simulate", arg, "--T", "0",
                       "--out", str(tmp_path / sub)) == 0
        manifest = json.loads(
            (tmp_path / sub / "six_agent_seed0" / "manifest.json").read_text())
        assert manifest["scenario"]["path"] == arg


def test_simulate_zero_horizon_ok(tmp_path):
    code = run_cli("simulate", "six_agent", "--seed", "2", "--T", "0",
                   "--out", str(tmp_path / "runs"))
    assert code == 0
    rd = tmp_path / "runs" / "six_agent_seed2"
    rows = (rd / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + 6  # header plus one record per agent


def test_plot_outputs_and_determinism(tmp_path):
    out = tmp_path / "runs"
    assert run_cli("simulate", "six_agent", "--seed", "3", "--T", "1",
                   "--out", str(out)) == 0
    rd = out / "six_agent_seed3"
    assert run_cli("plot", str(rd)) == 0
    svgs = ["trajectories.svg", "min_distance.svg", "velocity_diff.svg",
            "energy.svg"]
    first = {s: (rd / s).read_bytes() for s in svgs}
    assert run_cli("plot", str(rd)) == 0
    for s in svgs:
        assert (rd / s).read_bytes() == first[s], s
    assert b"d_s" in first["min_distance.svg"]


def test_plot_missing_directory_exits_2(tmp_path):
    assert run_cli("plot", str(tmp_path / "nope")) == 2


def _edit_manifest(**scenario):
    def edit(text):
        doc = json.loads(text)
        doc["scenario"].update(scenario)
        return json.dumps(doc)
    return edit


@pytest.mark.parametrize("name, corrupt", [
    ("manifest.json", lambda text: "[]"),
    ("manifest.json", _edit_manifest(formation_edges=[[0, 99]])),
    ("manifest.json", _edit_manifest(n_agents=math.inf)),
    ("trajectory.csv", lambda text: text.replace("\n0,3,", "\n0,99,", 1)),
    ("trajectory.csv", lambda text: text.replace("\n0,3,", "\n0,-1,", 1)),
    # n_agents larger than the trajectory: read before anything sized by
    # it is made, and no phantom agent is drawn
    ("manifest.json", _edit_manifest(n_agents=10**12)),
    ("manifest.json", _edit_manifest(n_agents=7)),
    ("trajectory.csv", lambda text: text.replace("\n0,3,", "\n0,2,", 1)),
    # numbers that are not finite used to end in a traceback from the
    # chart's axis ticks
    ("trajectory.csv", lambda text: re.sub(r"\n0,3,[^,]*", "\n0,3,nan",
                                           text, count=1)),
    ("energy.csv", lambda text: re.sub(r"\n0,.*", "\n0,inf", text, count=1)),
    ("manifest.json", lambda text: text.replace(
        '"d_s": 1.875', '"d_s": NaN', 1))],
    ids=["manifest_not_an_object", "edge_out_of_range", "infinite_n_agents",
         "agent_99", "agent_minus_1", "huge_n_agents", "extra_agent",
         "agent_twice_at_one_time", "nan_position", "infinite_energy",
         "nan_safety_distance"])
def test_plot_corrupt_run_directory_exits_2(tmp_path, capsys, name,
                                            corrupt):
    out = tmp_path / "runs"
    assert run_cli("simulate", "six_agent", "--T", "0",
                   "--out", str(out)) == 0
    path = out / "six_agent_seed0" / name
    text = path.read_text()
    assert corrupt(text) != text
    path.write_text(corrupt(text))
    capsys.readouterr()
    assert run_cli("plot", str(path.parent)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read run directory")
    assert "Traceback" not in err


def _set_cells(cells):
    """An edit of a CSV file's text that sets cells[(row, column)], rows
    counted from the first after the header."""
    def edit(text):
        rows = [line.split(",") for line in text.splitlines()]
        for (i, j), value in cells.items():
            rows[i][j] = value
        return "".join(",".join(row) + "\n" for row in rows)
    return edit


def _set_column(j, value):
    """An edit that sets column j of every row after the header."""
    return lambda text: _set_cells(
        {(i, j): value for i in range(1, text.count("\n"))})(text)


@pytest.mark.parametrize("name, corrupt", [
    # finite numbers whose range, or whose pair distances, overflow: the
    # axis was inf and its ticks ended in a traceback
    ("trajectory.csv", _set_cells({(1, 2): "1e308", (2, 2): "-1e308"})),
    ("trajectory.csv", _set_cells({(1, 4): "1e155", (2, 4): "-1e155"})),
    ("energy.csv", lambda text: "t,W\n0,1e308\n0.5,-1e308\n"),
    # a flat range too far from 0 to widen: no axis fits between floats
    ("trajectory.csv", _set_column(2, "1e20"))],
    ids=["position_range", "velocity_distances", "energy_range",
         "flat_far_from_zero"])
def test_plot_refuses_numbers_no_axis_can_draw(tmp_path, capsys, name,
                                               corrupt):
    out = tmp_path / "runs"
    assert run_cli("simulate", "six_agent", "--T", "0",
                   "--out", str(out)) == 0
    path = out / "six_agent_seed0" / name
    path.write_text(corrupt(path.read_text()))
    capsys.readouterr()
    assert run_cli("plot", str(path.parent)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read run directory {path.parent}: "
                          f"{name}: cannot draw")
    assert "Traceback" not in err
    assert list(path.parent.glob("*.svg")) == []


def test_certify_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "c.json"
    assert run_cli("certify", "six_agent", "--samples", "500",
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == \
        f"error: cannot write {out}: No such file or directory\n"


def test_simulate_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "a_file"
    out.write_text("")
    assert run_cli("simulate", "six_agent", "--T", "0",
                   "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out / 'six_agent_seed0'}" \
        ": Not a directory\n"


def _unreachable(*args, **kwargs):
    raise AssertionError("reached although the output is unwritable")


def test_certify_refuses_unwritable_output_before_any_work(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("robustform.cli.sample_lambda2", _unreachable)
    monkeypatch.setattr("robustform.cli.certify", _unreachable)
    for out, why in [(tmp_path / "missing_dir" / "c.json",
                      "No such file or directory"),
                     (tmp_path, "Is a directory")]:
        assert run_cli("certify", "six_agent", "--out", str(out)) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot write {out}: {why}\n")
    assert not (tmp_path / "missing_dir").exists()


def test_simulate_refuses_unwritable_output_before_any_work(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("robustform.cli.run", _unreachable)
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    run_dir = tmp_path / "runs" / "six_agent_seed0"
    (run_dir / "energy.csv").mkdir(parents=True)
    for out, path, why in [
            (a_file, a_file / "six_agent_seed0", "Not a directory"),
            (a_file / "deeper", a_file / "deeper" / "six_agent_seed0",
             "Not a directory"),
            (tmp_path / "runs", run_dir / "energy.csv", "Is a directory")]:
        assert run_cli("simulate", "six_agent", "--out", str(out)) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot write {path}: {why}\n")
    assert sorted(p.name for p in run_dir.iterdir()) == ["energy.csv"]


def test_simulate_creates_nothing_when_its_precondition_fails(tmp_path):
    out = tmp_path / "new" / "runs"
    pair = tmp_path / "pair.json"
    oracles.save_scenario(pair_scenario_doc(tau_x=2.0), pair)  # violates A1
    assert run_cli("simulate", str(pair), "--out", str(out)) == 1
    assert not (tmp_path / "new").exists()


def test_plot_unwritable_chart_exits_2(tmp_path, capsys):
    out = tmp_path / "runs"
    assert run_cli("simulate", "six_agent", "--T", "0",
                   "--out", str(out)) == 0
    chart = out / "six_agent_seed0" / "energy.svg"
    chart.mkdir()
    capsys.readouterr()
    assert run_cli("plot", str(chart.parent)) == 2
    assert capsys.readouterr().err == \
        f"error: cannot write {chart}: Is a directory\n"
    # no chart is written unless all of them can be
    assert sorted(p.name for p in chart.parent.glob("*.svg")) \
        == ["energy.svg"]


def test_plot_zero_horizon_run(tmp_path):
    out = tmp_path / "runs"
    assert run_cli("simulate", "six_agent", "--seed", "2", "--T", "0",
                   "--out", str(out)) == 0
    rd = out / "six_agent_seed2"
    assert run_cli("plot", str(rd)) == 0
    for s in ("trajectories.svg", "min_distance.svg",
              "velocity_diff.svg", "energy.svg"):
        assert (rd / s).exists()


def test_unsafe_flag_lets_uncertifiable_run_proceed(tmp_path):
    geom = AgentGeometry(r_a=0.75, r_c=0.9375, r_z=2.5, r_s=8.0,
                         d_s=1.875, eps=0.1)
    tau = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 100.0]])
    adj = oracles.adjacency(3, {(0, 1): {(): 1.0}})
    sc = ScenarioSpec(name="split", geometry=geom, tau=tau,
                      positions=tau.copy(), velocities=np.zeros((3, 2)),
                      formation=oracles.pair_mask(3, [(0, 1)]),
                      adjacency=adj, T_end=0.5)
    p = tmp_path / "split.json"
    oracles.save_scenario(sc, p)
    # gated: refused outright
    assert run_cli("simulate", str(p), "--out",
                   str(tmp_path / "r1")) == 1
    # unsafe: proceeds, and the disconnection monitor reports honestly
    code = run_cli("simulate", str(p), "--unsafe", "--out",
                   str(tmp_path / "r2"))
    assert code == 4
    metrics = json.loads(
        (tmp_path / "r2" / "split_seed0" / "metrics.json").read_text())
    assert metrics["failure"]["kind"] == "disconnected"


def test_version_flag(capsys):
    assert run_cli("--version") == 0
    assert "robustform" in capsys.readouterr().out


# set-up failures that used to leave simulate as a traceback with exit 1:
# a formation pair desired beyond r_s = 8, where its edge barrier is not
# defined, and a pair desired inside d_s, where its collision barrier is not
@pytest.mark.parametrize("tau_x, message", [
    (8.5, "formation pair (0,1)"),
    (1.5, "pair (0,1): desired distance 1.5 is not above d_s")])
def test_simulate_barrier_setup_failure_is_a_precondition(
        tmp_path, capsys, tau_x, message):
    sc = pair_scenario_doc(tau_x=tau_x, positions=[[0.0, 0.0], [3.0, 0.0]])
    sc.assumption_overrides = {"A1": "probe", "A3": "probe"}
    p = tmp_path / "pair.json"
    oracles.save_scenario(sc, p)
    assert run_cli("check", str(p)) == 0
    capsys.readouterr()
    assert run_cli("simulate", str(p), "--out", str(tmp_path / "r")) == 1
    err = capsys.readouterr().err
    assert err.startswith("precondition failed: ") and message in err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command, constant", [
    ("certify", 1e-6), ("simulate", 1e-6),
    ("certify", -1.0), ("simulate", -1.0)],
    ids=["certify", "simulate", "certify-empty", "simulate-empty"])
def test_region_too_small_to_sample_exits_2(tmp_path, capsys, command,
                                            constant):
    # radius^2 1e-6 inside the box [-1, 1]^2: rejection sampling finds
    # (almost) no point of the region; radius^2 -1: the region is empty,
    # and simulate draws its theta before it would certify
    doc = json.loads(builtin_path("six_agent").read_text())
    terms = doc["uncertainty"]["region"][0]["terms"]
    assert terms[2] == {"exponents": [0, 0], "coeff": 1.0}
    terms[2]["coeff"] = constant
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(doc))
    assert run_cli(command, str(p), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "uncertainty.region" in err and "uncertainty.box" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def adversarial_doc():
    return json.loads(builtin_path("adversarial").read_text())


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("flatten", [
    ("tau", "positions", "velocities"), ("positions",), ("velocities",)],
    ids=["all_three", "positions", "velocities"])
def test_agent_arrays_must_be_two_dimensional(tmp_path, capsys, command,
                                              flatten):
    # [[0, 0], [3, 0]] flattened to [0, 0, 3, 0] or cut to [0, 3]; the
    # error names the first bad field
    doc = adversarial_doc()
    for key in flatten:
        doc[key] = [row[0] for row in doc[key]]
    p = tmp_path / "flat.json"
    p.write_text(json.dumps(doc))
    args = [] if command == "check" else ["--out", str(tmp_path / "out")]
    assert run_cli(command, str(p), *args) == 2
    err = capsys.readouterr().err
    assert f"{flatten[0]}: must be " in err and "rows of coordinates" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("field, value", [
    ("positions", float("nan")), ("tau", float("inf")),
    ("velocities", float("-inf"))])
def test_agent_arrays_must_be_finite(tmp_path, capsys, command, field,
                                     value):
    # a nan position used to pass check and run to "simulate: OK" with
    # min_distance NaN, since the safety monitor never trips on nan
    doc = json.loads(builtin_path("six_agent").read_text())
    doc[field][2][1] = value
    p = tmp_path / "nonfinite.json"
    p.write_text(json.dumps(doc))
    args = [] if command == "check" else ["--out", str(tmp_path / "out")]
    assert run_cli(command, str(p), *args) == 2
    err = capsys.readouterr().err
    assert f"{field}: coordinate [2][1] is {value}, must be finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["../evil", "a/b", ".hidden", "..", "",
                                  "-dash", "tab\tname"])
def test_scenario_name_must_be_a_plain_file_name(tmp_path, capsys, name):
    doc = adversarial_doc()
    doc["name"] = name
    p = tmp_path / "named.json"
    p.write_text(json.dumps(doc))
    assert run_cli("check", str(p)) == 2
    assert "name: " in capsys.readouterr().err


def test_scenario_name_cannot_write_outside_the_output(tmp_path,
                                                      monkeypatch):
    # simulate's run directory and certify's default certificate path are
    # both made from the name; with work/ as the working and the output
    # directory, "../evil" would put them next to work/ in tmp_path
    work = tmp_path / "work"
    work.mkdir()
    doc = adversarial_doc()
    doc["name"] = "../evil"
    p = work / "named.json"
    p.write_text(json.dumps(doc))
    monkeypatch.chdir(work)
    before = sorted(tmp_path.parent.iterdir())
    assert run_cli("simulate", str(p), "--out", str(work)) == 2
    assert run_cli("certify", str(p), "--samples", "100") == 2
    assert list(tmp_path.iterdir()) == [work]
    assert list(work.iterdir()) == [p]
    assert sorted(tmp_path.parent.iterdir()) == before


def test_plot_one_coordinate_run(tmp_path):
    # adversarial cut to its first coordinate: a head-on run on a line,
    # drawn on y = 0
    doc = adversarial_doc()
    for key in ("tau", "positions", "velocities"):
        doc[key] = [row[:1] for row in doc[key]]
    p = tmp_path / "line.json"
    p.write_text(json.dumps(doc))
    assert run_cli("check", str(p)) in (0, 1)
    out = tmp_path / "runs"
    assert run_cli("simulate", str(p), "--out", str(out)) in (0, 4)
    rd = out / "adversarial_seed0"
    assert run_cli("plot", str(rd)) == 0
    svg = (rd / "trajectories.svg").read_text()
    for s in ("min_distance.svg", "velocity_diff.svg", "energy.svg"):
        assert (rd / s).exists()
    assert svg.count("<circle") == 2
