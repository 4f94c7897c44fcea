"""Command-line interface: check, certify, simulate, plot.

Exit codes form the machine-readable half of the contract:

  check     0 assumptions pass, 1 violated, 2 parse error
  certify   0 certified, replayed and sampling agrees, 1 inconclusive,
            2 parse error or unwritable output, 3 solver failure
  simulate  0 clean run, 1 precondition or convergence failure,
            2 parse error or unwritable output, 4 invariant violation,
            5 barrier domain violation
  plot      0 plots written, 2 missing or corrupt run directory or
            unwritable chart

Every output byte is a pure function of (scenario file, flags, seed): no
timestamps, no environment leakage, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import errno
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .certifier import CertifierError, certify, sample_lambda2
from .netgraph import (RegionSamplingError, pair_distances,
                       validate_assumptions)
from .scenario import ScenarioSpec
from .simulate import PreconditionError, run

MANIFEST_FORMAT = "run-manifest/2"
# check tests every corner of the uncertainty box: at most 2^16
MAX_BOX_PARAMETERS = 16


def _resolve_scenario_path(path: str) -> str:
    """A bare shipped-scenario name resolves to the packaged file."""
    from .scenario import BUILTIN, builtin_path
    if not os.path.exists(path) and path in BUILTIN:
        return str(builtin_path(path))
    return path


def _load_scenario(arg: str) -> tuple[str, ScenarioSpec]:
    """The resolved path of the scenario argument and the scenario parsed
    from it; raises SystemExit(2) with a location."""
    path = _resolve_scenario_path(arg)
    try:
        return path, ScenarioSpec.load(path)
    except FileNotFoundError:
        print(f"error: no such scenario file: {path}", file=sys.stderr)
        raise SystemExit(2)
    except json.JSONDecodeError as err:
        print(f"error: {path}:{err.lineno}:{err.colno}: {err.msg}",
              file=sys.stderr)
        raise SystemExit(2)
    except (KeyError, TypeError, ValueError) as err:
        print(f"error: {path}: invalid scenario: {err}", file=sys.stderr)
        raise SystemExit(2)


def _cannot_write(path, err: OSError) -> int:
    """Report an output that cannot be written, the file err names or else
    path (a failed write names none): exit 2."""
    print(f"error: cannot write {err.filename or path}: {err.strerror}",
          file=sys.stderr)
    return 2


def _check_writable(path: Path, directory: bool = False) -> None:
    """Raise the OSError that writing the file path would meet, or with
    directory making path and its parents, without creating anything: a
    parent missing or not a directory, a directory in a file's place or a
    file in a directory's, or no permission.  Lets a command refuse its
    output before any work."""
    if not directory:
        try:
            os.close(os.open(path, os.O_WRONLY | os.O_APPEND))
            return
        except FileNotFoundError:
            if not path.parent.is_dir():
                raise
        base, missing = path.parent, path
    elif path.exists():
        if not path.is_dir():
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST),
                                  str(path))
        base, missing = path, path
    else:
        missing = path
        while not missing.parent.exists():
            missing = missing.parent
        base = missing.parent
        if not base.is_dir():
            raise NotADirectoryError(errno.ENOTDIR,
                                     os.strerror(errno.ENOTDIR), str(path))
    if not os.access(base, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                              str(missing))


def _box_containment_issues(spec: ScenarioSpec) -> list[str]:
    """Necessary-condition check that the box encloses the region.

    If the region's defining polynomials are all strictly positive at a
    box corner, the region reaches the box boundary with margin and very
    likely spills outside it.  Raises ValueError, naming
    uncertainty.n_parameters, when there are more than 2^MAX_BOX_PARAMETERS
    corners to test."""
    adj = spec.adjacency
    r = adj.r
    if r == 0 or not adj.omega.rows:
        return []
    if r > MAX_BOX_PARAMETERS:
        raise ValueError(
            f"uncertainty.n_parameters: {r} parameters; check tests the "
            f"2^r box corners for at most {MAX_BOX_PARAMETERS}")
    corners = np.array(np.meshgrid(
        *[np.array(b) for b in adj.box], indexing="ij")
    ).reshape(r, -1).T
    inside = np.all(adj.omega.eval_batch(corners)[..., 0] > 1e-9, axis=1)
    return [f"box corner {corner.tolist()} lies strictly inside the "
            f"parameter region; the sampling box may truncate it"
            for corner in corners[inside]]


def cmd_check(args) -> int:
    path, spec = _load_scenario(args.scenario)
    try:
        issues = _box_containment_issues(spec)
    except ValueError as err:
        print(f"error: {path}: {err}", file=sys.stderr)
        return 2
    passed, lines = validate_assumptions(
        spec.tau, spec.formation, spec.positions, spec.geometry,
        overrides=spec.assumption_overrides)
    print(f"scenario {spec.name}: {spec.n_agents} agents, "
          f"{np.count_nonzero(spec.formation)} formation edges, "
          f"{spec.adjacency.r} uncertain parameters")
    for line in lines:
        print(line)
    for issue in issues:
        print(f"box: {issue}")
    if passed and not issues:
        print("check: OK")
        return 0
    print("check: FAILED")
    return 1


def cmd_certify(args) -> int:
    path, spec = _load_scenario(args.scenario)
    adj = spec.adjacency
    out = args.out or f"{spec.name}_certificate.json"
    try:
        _check_writable(Path(out))
    except OSError as err:
        return _cannot_write(out, err)
    try:
        samples = sample_lambda2(adj, n_samples=args.samples, seed=args.seed)
        res = certify(adj, tol=args.tol)
    except (RegionSamplingError, CertifierError) as err:
        print(f"error: {path}: {err}", file=sys.stderr)
        return 2
    if not res.solution.ok:
        print(f"solver failure: {res.solution.status}")
        return 3
    print(f"c_star = {res.certificate.c_star:.9g}")
    print(f"degree plan: d_H={res.certificate.plan.d_H} "
          f"d_R={list(res.certificate.plan.d_R)}")
    print(f"sampled min lambda2 = {samples.min_value:.9g} "
          f"over {args.samples} points")
    try:
        res.certificate.save(out)
    except OSError as err:
        return _cannot_write(out, err)
    print(f"certificate written to {out}")
    if res.connected and samples.min_value > 0.0:
        print("certify: CONNECTED")
        return 0
    for reason in res.refusals:
        print(f"refused: {reason}")
    print("certify: INCONCLUSIVE")
    return 1


def _csv_num(x: float) -> str:
    return format(float(x), ".17g")


def _write_trajectory_csv(path: Path, log, dim: int) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "agent"] + [f"{c}{k}" for c in "xvu"
                                     for k in range(dim)])
        for s in range(log.times.shape[0]):
            for a in range(log.positions.shape[1]):
                w.writerow([_csv_num(log.times[s]), str(a)] + [
                    _csv_num(v) for arr in (log.positions, log.velocities,
                                            log.controls)
                    for v in arr[s, a]])


def _write_energy_csv(path: Path, log) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "W"])
        for t, W in zip(log.W_times, log.W_values):
            w.writerow([_csv_num(t), _csv_num(W)])


def _tolist(obj):
    """json.dumps default: NumPy arrays and non-float scalars as Python
    lists and numbers (float64 is a float, which json writes itself)."""
    return obj.tolist()


# switch and zone events are written one line per pair:
# (event type, key of its pair list, action)
_PAIR_ACTIONS = (("switch", "added", "add"), ("switch", "removed", "remove"),
                 ("zone", "entered", "zone_enter"),
                 ("zone", "left", "zone_leave"))


def _write_events_jsonl(path: Path, events) -> None:
    with path.open("w") as fh:
        for ev in events:
            if ev["type"] in ("switch", "zone"):
                docs = [{"t": ev["t"], "pair": list(pair), "action": action}
                        for kind, key, action in _PAIR_ACTIONS
                        if kind == ev["type"] for pair in ev[key]]
            else:
                docs = [{"action": ev["type"], **{
                    k: v for k, v in ev.items() if k != "type"}}]
            for doc in docs:
                fh.write(json.dumps(doc, default=_tolist) + "\n")


def cmd_simulate(args) -> int:
    scenario_path, spec = _load_scenario(args.scenario)
    scenario_bytes = Path(scenario_path).read_bytes()
    run_dir = Path(args.out) / f"{spec.name}_seed{args.seed}"
    outputs = ["trajectory.csv", "energy.csv", "metrics.json",
               "events.jsonl", "manifest.json"]
    # a run that is not unsafe certifies, and writes its certificate
    cert_name = None if args.unsafe else "certificate.json"
    if cert_name is not None:
        outputs.append(cert_name)
    try:
        _check_writable(run_dir, directory=True)
        if run_dir.is_dir():
            for name in outputs:
                _check_writable(run_dir / name)
    except OSError as err:
        return _cannot_write(run_dir, err)
    # run raises ValueError for a region too small to sample, a certificate
    # that does not fit, or a --T of more than MAX_STEPS steps
    try:
        res = run(spec, seed=args.seed, T_end=args.T, unsafe=args.unsafe)
    except ValueError as err:
        print(f"error: {scenario_path}: {err}", file=sys.stderr)
        return 2
    except PreconditionError as err:
        print(f"precondition failed: {err}", file=sys.stderr)
        return 1

    # the convergence budget is defined at the scenario's own horizon;
    # a run cut short by --T is judged on invariants alone
    full_horizon = res.metrics["t_final"] >= spec.T_end - 0.5 * spec.dt
    converged = True
    if spec.conv_tol is not None and res.metrics["n_steps_taken"] > 0 \
            and full_horizon:
        converged = (
            res.metrics["formation_error"] <= spec.conv_tol
            and res.metrics["velocity_disagreement"] <= spec.conv_tol)

    manifest = {
        "format": MANIFEST_FORMAT,
        "tool_version": __version__,
        "scenario": {
            "name": spec.name,
            "path": args.scenario,
            "sha256": hashlib.sha256(scenario_bytes).hexdigest(),
            "n_agents": spec.n_agents,
            "dim": spec.dim,
            "geometry": asdict(spec.geometry),
            "formation_edges": np.argwhere(spec.formation).tolist(),
        },
        "seed": args.seed,
        "T_end": args.T if args.T is not None else spec.T_end,
        "dt": spec.dt,
        "unsafe": bool(args.unsafe),
        "theta": res.theta,
        "barrier": asdict(res.params),
        "tuned": res.tune is not None,
        "certificate": cert_name,
        "ok": res.ok,
        "converged": converged,
        "outputs": sorted(outputs),
    }
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        _write_trajectory_csv(run_dir / "trajectory.csv", res.log, spec.dim)
        _write_energy_csv(run_dir / "energy.csv", res.log)
        (run_dir / "metrics.json").write_text(
            json.dumps(res.metrics, indent=2, default=_tolist) + "\n")
        _write_events_jsonl(run_dir / "events.jsonl", res.log.events)
        if cert_name is not None:
            res.cert.save(run_dir / cert_name)
        (run_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, default=_tolist) + "\n")
    except OSError as err:
        return _cannot_write(run_dir, err)

    print(f"run directory: {run_dir}")
    for k in ("t_final", "formation_error", "velocity_disagreement",
              "min_distance", "n_switches", "final_W"):
        print(f"  {k}: {res.metrics[k]}")
    if not res.ok:
        f = res.failure
        where = f" pair {f['pair']}" if "pair" in f else ""
        print(f"invariant violation: {f['kind']} at t={f['t']:.6g}{where}",
              file=sys.stderr)
        return 5 if f["kind"] == "domain_violation" else 4
    if not converged:
        print(f"run completed but convergence tolerance "
              f"{spec.conv_tol} was not met", file=sys.stderr)
        return 1
    print("simulate: OK")
    return 0


# ------------------------------------------------------------- plotting

_PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]
_W, _H = 640, 480                     # chart size
_ML, _MR, _MT, _MB = 62, 16, 36, 46   # margins around the plot area
_PW, _PH = _W - _ML - _MR, _H - _MT - _MB
_TICKS = 5  # most tick intervals per axis


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _span(values: np.ndarray, source: str) -> tuple[float, float]:
    """The padded range of one axis: the values' range (0..1 if there are
    none, widened to 1 if it is flat) and 5 % on either side.  Raises
    ValueError naming source, the files the values come from, when that
    range cannot be drawn (see _drawable)."""
    lo, hi = (float(values.min()), float(values.max())) if values.size \
        else (0.0, 1.0)
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    if not _drawable(lo - pad, hi + pad):
        raise ValueError(f"{source}: cannot draw values from {lo:g} to "
                         f"{hi:g} on one axis")
    return lo - pad, hi + pad


def _drawable(lo: float, hi: float) -> bool:
    """Whether an axis from lo to hi has a finite width and is wider than
    the spacing of floats there."""
    return lo < hi and math.isfinite(hi - lo)


def _ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / _TICKS))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * mult) <= _TICKS:
            step *= mult
            break
    # whole multiples of step, counted rather than summed: a sum stops
    # growing where step is below the spacing of floats near lo
    first = math.ceil(lo / step)
    last = math.floor((hi + 1e-9 * span) / step)
    return [k * step for k in range(first, last + 1)]


def _text(x, y, anchor: str, size: int, body: str, extra: str = "") -> str:
    return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="{size}"{extra}>'
            f'{body}</text>')


def _chart(source: str, title: str, xlabel: str, ylabel: str, series,
           points=(), hline=None, equal_aspect: bool = False) -> str:
    """A line chart as a minimal standalone SVG.  series are (xs, ys,
    color, width): a polyline, or a dot if it has one point; points are
    (x, y, color, radius) dots; hline is one dashed, labelled (y, color,
    label) line.  equal_aspect gives both axes one scale.  Raises
    ValueError naming source, the files the numbers come from, when an
    axis cannot be drawn."""
    x0, x1 = _span(np.hstack([s[0] for s in series]
                             + [p[0] for p in points]), source)
    y0, y1 = _span(np.hstack([s[1] for s in series]
                             + [p[1] for p in points]
                             + ([hline[0]] if hline else [])), source)
    if equal_aspect:
        s = max((x1 - x0) / _PW, (y1 - y0) / _PH)
        cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
        x0, x1 = cx - s * _PW / 2, cx + s * _PW / 2
        y0, y1 = cy - s * _PH / 2, cy + s * _PH / 2
        if not (_drawable(x0, x1) and _drawable(y0, y1)):
            raise ValueError(f"{source}: cannot draw both axes to one "
                             f"scale")

    def X(x):
        return _ML + (x - x0) / (x1 - x0) * _PW

    def Y(y):
        return _MT + (y1 - y) / (y1 - y0) * _PH

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
           f'height="{_H}" viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>',
           _text(_W // 2, 22, "middle", 15, title),
           f'<rect x="{_ML}" y="{_MT}" width="{_PW}" height="{_PH}" '
           f'fill="none" stroke="#333333"/>']
    for tx in _ticks(x0, x1):
        px = _fmt(X(tx))
        out += [f'<line x1="{px}" y1="{_MT + _PH}" x2="{px}" '
                f'y2="{_MT + _PH + 4}" stroke="#333333"/>',
                _text(px, _MT + _PH + 18, "middle", 11, _fmt(tx))]
    for ty in _ticks(y0, y1):
        py = Y(ty)
        out += [f'<line x1="{_ML - 4}" y1="{_fmt(py)}" x2="{_ML}" '
                f'y2="{_fmt(py)}" stroke="#333333"/>',
                _text(_ML - 7, _fmt(py + 4), "end", 11, _fmt(ty))]
    mid = _MT + _PH // 2
    out += [_text(_ML + _PW // 2, _H - 8, "middle", 12, xlabel),
            _text(16, mid, "middle", 12, ylabel,
                  f' transform="rotate(-90 16 {mid})"')]
    if hline:
        yv, color, label = hline
        py = Y(yv)
        out += [f'<line x1="{_ML}" y1="{_fmt(py)}" x2="{_ML + _PW}" '
                f'y2="{_fmt(py)}" stroke="{color}" stroke-dasharray="6,4"/>',
                _text(_ML + _PW - 4, _fmt(py - 5), "end", 11, label,
                      f' fill="{color}"')]
    for xs, ys, color, width in series:
        if len(xs) == 1:
            out.append(f'<circle cx="{_fmt(X(xs[0]))}" '
                       f'cy="{_fmt(Y(ys[0]))}" r="2.5" fill="{color}"/>')
        elif len(xs):
            pts = " ".join(f"{_fmt(X(a))},{_fmt(Y(b))}"
                           for a, b in zip(xs, ys))
            out.append(f'<polyline points="{pts}" fill="none" '
                       f'stroke="{color}" stroke-width="{_fmt(width)}"/>')
    out += [f'<circle cx="{_fmt(X(x))}" cy="{_fmt(Y(y))}" '
            f'r="{_fmt(radius)}" fill="{color}"/>'
            for x, y, color, radius in points]
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _read_run_dir(run_dir: Path):
    """Parse a run directory; raises ValueError (or the parser's own
    error) on anything a run does not write, and on a number that is not
    finite, naming its file.  trajectory.csv holds one row per time and
    agent 0..n_agents-1, at least one time."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    if not isinstance(manifest, dict):
        raise ValueError("manifest.json is not a JSON object")
    scen = manifest["scenario"]
    N = int(scen["n_agents"])
    d_s = float(scen["geometry"]["d_s"])
    if not math.isfinite(d_s):
        raise ValueError(f"manifest.json: d_s {d_s} is not finite")
    fe = [(int(i), int(j)) for i, j in scen["formation_edges"]]
    if any(not (0 <= a < N) for e in fe for a in e):
        raise ValueError(f"formation edge outside agents 0..{N - 1}")
    with (run_dir / "trajectory.csv").open() as fh:
        header, *body = csv.reader(fh)
    if not body:
        raise ValueError("trajectory.csv has no rows")
    dim = (len(header) - 2) // 3
    data = np.array([[float(v) for v in row] for row in body])
    if not np.isfinite(data).all():
        raise ValueError("trajectory.csv holds a number that is not finite")
    times, t_index = np.unique(data[:, 0], return_inverse=True)
    agent = data[:, 1]
    bad = ~((0 <= agent) & (agent < N) & (agent == np.floor(agent)))
    if bad.any():
        raise ValueError(f"trajectory.csv: agent {agent[bad][0]:g} is not "
                         f"one of 0..{N - 1}")
    # the row count is checked first, so that nothing sized by N is made
    # unless N <= len(body)
    if len(body) != len(times) * N or len(np.unique(
            t_index * N + agent.astype(int))) != len(body):
        raise ValueError("trajectory.csv does not hold one row per time "
                         f"and agent 0..{N - 1}")
    data = data[np.lexsort((agent, t_index))].reshape(len(times), N, -1)
    positions = data[..., 2:2 + dim]
    velocities = data[..., 2 + dim:2 + 2 * dim]
    with (run_dir / "energy.csv").open() as fh:
        _, *body = csv.reader(fh)
    erows = [(float(row[0]), float(row[1])) for row in body]
    energy = np.array(erows) if erows else np.zeros((0, 2))
    if not np.isfinite(energy).all():
        raise ValueError("energy.csv holds a number that is not finite")
    return N, d_s, fe, times, positions, velocities, energy


def _charts(N, d_s, fe, times, positions, velocities, energy) -> dict:
    """The four charts, by file name, of a run directory that
    _read_run_dir parsed.  Raises ValueError, naming the files, when their
    numbers span an axis that cannot be drawn."""
    # the first two coordinates; a one-coordinate run is drawn on y = 0
    xy = positions[..., :2]
    xy = np.pad(xy, ((0, 0), (0, 0), (0, 2 - xy.shape[2])))
    colors = [_PALETTE[a % len(_PALETTE)] for a in range(N)]
    iu, ju = np.triu_indices(N, k=1)
    # a distance that overflows is inf, which _chart refuses
    with np.errstate(over="ignore", invalid="ignore"):
        dmin = np.array([float(np.min(pair_distances(p)[iu, ju]))
                         for p in positions])
        vdis = np.array([float(np.max(pair_distances(v)))
                         for v in velocities])
    return {
        "trajectories.svg": _chart(
            "trajectory.csv", "Agent trajectories", "x", "y",
            [(xy[:, a, 0], xy[:, a, 1], colors[a], 1.2) for a in range(N)]
            + [(xy[-1, [i, j], 0], xy[-1, [i, j], 1], "#999999", 0.8)
               for i, j in fe],
            [(xy[-1, a, 0], xy[-1, a, 1], colors[a], 4.0) for a in range(N)],
            equal_aspect=True),
        "min_distance.svg": _chart(
            "trajectory.csv and manifest.json", "Minimum pairwise distance",
            "t", "distance", [(times, dmin, _PALETTE[0], 1.6)],
            hline=(d_s, "#d62728", f"d_s = {_fmt(d_s)}")),
        "velocity_diff.svg": _chart(
            "trajectory.csv", "Velocity disagreement", "t",
            "max |v_i - v_j|", [(times, vdis, _PALETTE[1], 1.6)]),
        "energy.svg": _chart(
            "energy.csv", "Composite energy", "t", "W",
            [(energy[:, 0], energy[:, 1], _PALETTE[2], 1.6)]),
    }


def cmd_plot(args) -> int:
    run_dir = Path(args.run_dir)
    try:
        charts = _charts(*_read_run_dir(run_dir))
    except (OSError, ValueError, LookupError, TypeError,
            OverflowError) as err:
        print(f"error: cannot read run directory {run_dir}: {err}",
              file=sys.stderr)
        return 2
    try:
        for name in charts:  # all of them, before the first is written
            _check_writable(run_dir / name)
        for name, svg in charts.items():
            (run_dir / name).write_text(svg)
    except OSError as err:
        return _cannot_write(run_dir / name, err)
    for name in charts:
        print(f"wrote {run_dir / name}")
    return 0


def _number_flag(kind: type, low: float, strict: bool = False):
    """argparse type of a numeric flag: a finite value of `kind` (int or
    float) that is > low when strict, >= low otherwise."""
    op = ">" if strict else ">="
    rule = f"an integer {op} {low}" if kind is int else \
        f"finite and {op} {low}"

    def number(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan  # fails both comparisons below
        if not (value > low if strict else value >= low) \
                or value == math.inf:
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    return number


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="robustform",
        description="certified formation control under uncertain "
                    "communication weights")
    ap.add_argument("--version", action="version",
                    version=f"robustform {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check",
                       help="validate a scenario against the setup "
                            "assumptions")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("certify",
                       help="produce a worst-case connectivity "
                            "certificate")
    p.add_argument("scenario")
    p.add_argument("--tol", type=_number_flag(float, 0, strict=True),
                   default=1e-8,
                   help="interior-point termination tolerance")
    p.add_argument("--samples", type=_number_flag(int, 1), default=10000,
                   help="sample count for the eigenvalue cross-check")
    p.add_argument("--seed", type=_number_flag(int, 0), default=0,
                   help="seed for the sampling cross-check")
    p.add_argument("--out", default=None,
                   help="certificate output path")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="run one seeded simulation")
    p.add_argument("scenario")
    p.add_argument("--seed", type=_number_flag(int, 0), default=0)
    p.add_argument("--T", type=_number_flag(float, 0), default=None,
                   help="horizon override (0 records the initial state)")
    p.add_argument("--unsafe", action="store_true",
                   help="skip assumption and certificate gating")
    p.add_argument("--out", default="runs",
                   help="directory that will hold the run directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("plot",
                       help="render SVG charts from a run directory")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_plot)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
