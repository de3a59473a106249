"""Every name the benchmark's per-layer tracer wraps still exists.

`perfbench/tracer.py` looks its targets up by name when it installs; a
refactor that deletes or renames one would otherwise fail only a traced
benchmark run, which this suite does not start.  The tracer is loaded from
its file as it is, without installing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


def _module(name):
    return importlib.import_module(f"{TRACER.PACKAGE}.{name}")


@pytest.mark.parametrize("layer", sorted(TRACER.LAYERS))
def test_traced_layer_targets_resolve(layer):
    for mod, cls, attr in TRACER.LAYERS[layer]:
        module = _module(mod)
        if cls is None:
            assert callable(getattr(module, attr, None)), (mod, attr)
        else:
            # install() replaces owner.__dict__[attr], so the class itself must define it
            assert attr in vars(getattr(module, cls)), (mod, cls, attr)


@pytest.mark.parametrize("name", sorted(TRACER.CACHES))
def test_traced_cache_factories_report_hits(name):
    mod, attr = TRACER.CACHES[name]
    assert callable(getattr(getattr(_module(mod), attr), "cache_info", None)), (mod, attr)
