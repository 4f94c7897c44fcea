"""The benchmark's traced mode wraps package names from outside.

bench/tracer.py lists in PATCHES every (owner, name) it replaces with a
timing wrapper.  A refactor that renames or moves one of them breaks the
benchmark, so each entry must resolve here the way Tracer.install looks it
up: through the class __dict__ for a class, through getattr for a module.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = _load_tracer()


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
