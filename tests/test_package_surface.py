"""The package holds only what a command or the benchmark runs.

Every module-level function and every method other than a dunder that
src/robustform defines must be named somewhere in src/ or bench/ outside
its own definition: as a name, an attribute, an import or an identifier
string (bench/tracer.py names what it wraps in strings).  A name that only
the tests use belongs in the tests.  Every field of a package dataclass
must be read somewhere in src/, bench/ or tests/.  Every function and
method must also be entered when the commands and the benchmark's entry
points run, unless it is an error path or named only by bench/tracer.py."""

import ast
import contextlib
import importlib
import io
import sys
from pathlib import Path

from robustform.certifier import Certificate, verify_certificate
from robustform.cli import main
from robustform.scenario import BUILTIN, ScenarioSpec, builtin_path
from robustform.simulate import run

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "robustform").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "bench").glob("*.py"))


def defined(tree):
    """(qualified name, node) of the module-level functions and of the
    methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def named(tree):
    """Every name the tree refers to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def test_every_package_function_is_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in SOURCES}
    used = {name for tree in trees.values() for name in named(tree)}
    unused = sorted(qual for path in PACKAGE
                    for qual, node in defined(trees[path])
                    if not (node.name.startswith("__")
                            and node.name.endswith("__"))
                    and node.name not in used)
    assert unused == []


def defaulted(tree):
    """(qualified name, callee name, parameter, position) of every
    parameter with a default of the functions and methods the tree
    defines, at any depth.  A method's position leaves out its self or cls
    and its callee name is the class name for __init__; position is None
    for a keyword-only parameter."""
    def visit(node, owner):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, ast.ClassDef):
                yield from visit(item, item.name)
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = item.args
                params = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                skip = 1 if owner and not static else 0
                callee = owner if item.name == "__init__" else item.name
                qual = f"{owner}.{item.name}" if owner else item.name
                for k in range(len(params) - len(a.defaults), len(params)):
                    yield qual, callee, params[k].arg, k - skip
                for p, d in zip(a.kwonlyargs, a.kw_defaults):
                    if d is not None:
                        yield qual, callee, p.arg, None
                yield from visit(item, None)
            else:
                yield from visit(item, owner)
    yield from visit(tree, None)


def callee_name(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else \
        f.attr if isinstance(f, ast.Attribute) else None


def test_every_defaulted_parameter_is_set_outside_the_tests():
    # a default that no command or benchmark overrides is a test-only knob:
    # it counts as set when a call passes it by keyword or positionally,
    # or when an identifier string names it (bench/tracer.py fills in
    # sdp.solve's callback through kwargs)
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    calls = [node for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    strings = {node.value for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.Constant)
               and isinstance(node.value, str)}

    def is_set(callee, param, position):
        if param in strings:
            return True
        for call in calls:
            if callee_name(call) != callee:
                continue
            if any(kw.arg in (param, None) for kw in call.keywords):
                return True
            if position is not None and (
                    len(call.args) > position
                    or any(isinstance(x, ast.Starred) for x in call.args)):
                return True
        return False

    unset = sorted(f"{qual}({param}=)" for path in PACKAGE
                   for qual, callee, param, position in defaulted(
                       ast.parse(path.read_text(), str(path)))
                   if not is_set(callee, param, position))
    assert unset == []


def dataclass_fields(tree):
    """(qualified name, name) of the annotated fields of the module-level
    dataclasses the tree defines."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and "dataclass" in {
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                for d in node.decorator_list}:
            for item in node.body:
                if isinstance(item, ast.AnnAssign) \
                        and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id


def test_every_dataclass_field_is_read():
    # a field counts as read where an attribute of its name is loaded or
    # an identifier string names it, in the package, the benchmark or the
    # tests; a field that nothing reads is a record of nothing
    trees = [ast.parse(path.read_text(), str(path))
             for path in SOURCES + sorted((ROOT / "tests").glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)} | {
        node.value for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.isidentifier()}
    unread = sorted(qual for path in PACKAGE
                    for qual, name in dataclass_fields(
                        ast.parse(path.read_text(), str(path)))
                    if name not in read)
    assert unread == []


# the names through which a certificate is replayed or judged
GATE_NAMES = {"verify_certificate", "CONNECTIVITY_THRESHOLD", "PSD_TOL",
              "SAMPLE_TOL"}


def test_only_the_certifier_names_the_replay_and_its_tolerances():
    # certifier.refusals is the one gate of the certify verdict and of a
    # run: no other module replays a certificate or weighs it against a
    # threshold of its own
    naming = sorted(f"{path.name}: {name}" for path in PACKAGE
                    if path.name != "certifier.py"
                    for name in GATE_NAMES & set(named(ast.parse(
                        path.read_text(), str(path)))))
    assert naming == []


# each LAPACK eigenvalue driver and the one function that names it
DRIVERS = {"dsbevx": "eigenvalue_at", "dsyevx": "least_eigenvalues"}


def test_each_eigenvalue_driver_has_one_caller():
    # every sampled eigenvalue goes through certifier.eigenvalue_at, the
    # one caller of the band driver, and every dense subset of a spectrum
    # through least_eigenvalues
    naming = sorted(
        f"{path.name}: {getattr(node, 'name', '<module>')}: {driver}"
        for path in PACKAGE
        for node in ast.parse(path.read_text(), str(path)).body
        for driver in DRIVERS.keys() & set(named(node)))
    assert naming == sorted(f"certifier.py: {caller}: {driver}"
                            for driver, caller in DRIVERS.items())


# the functions no command or benchmark entry point enters on a valid
# input: the error paths, and what only bench/tracer.py's PATCHES name
UNENTERED = {"barrier.py: _violation", "barrier.py: _at_pair",
             "barrier.py: DomainViolation.__init__", "cli.py: _cannot_write",
             "polyalg.py: MatrixPolynomial.__repr__",
             "polyalg.py: MatrixPolynomial.__call__",
             "smr.py: PowerVector.eval_batch"}


def test_every_package_function_is_entered_by_a_command_or_the_benchmark(
        tmp_path):
    # the static test above counts a name as used wherever it appears; this
    # one runs every command, and the benchmark's replay and its run of
    # the stored fifty-agent certificate, and records each function entered
    # a function's code starts at its first decorator, if it has one
    names = {(str(path), min([node.lineno] + [d.lineno for d in
                                              node.decorator_list])):
             f"{path.name}: {qual}" for path in PACKAGE
             for qual, node in defined(ast.parse(path.read_text()))}
    entered = set()
    # a cached function is entered only on a miss: start with empty caches
    for path in PACKAGE:
        module = importlib.import_module(f"robustform.{path.stem}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add(names.get((code.co_filename, code.co_firstlineno)))

    out = tmp_path / "runs"
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for name in BUILTIN:
                main(["check", name])
                main(["certify", name, "--samples", "20",
                      "--out", str(tmp_path / f"{name}.json")])
            # six_agent switches an edge and enters the zone within 1 s
            main(["simulate", "six_agent", "--T", "1", "--out", str(out)])
            main(["simulate", "adversarial", "--out", str(out)])
            main(["plot", str(out / "six_agent_seed0")])
            # the benchmark replays the certificate that its round's
            # certify wrote, and runs from the stored one, which has a
            # general P_bar and so takes the replay's dense route
            spec = ScenarioSpec.load(builtin_path("fifty_agent"))
            cert = Certificate.load(ROOT / "bench" /
                                    "fifty_agent_certificate.json")
            for replayed in (Certificate.load(tmp_path / "fifty_agent.json"),
                             cert):
                verify_certificate(replayed, spec.adjacency, n_samples=20,
                                   seed=0)
            run(spec, seed=0, T_end=0.01, certificate=cert)
    finally:
        sys.setprofile(None)
    assert sorted(set(names.values()) - entered) == sorted(UNENTERED)
