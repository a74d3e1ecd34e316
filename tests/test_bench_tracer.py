"""The names ``bench/tracer.py`` wraps must exist in hodgekit, so renaming
or deleting a spanned function fails here and not only in a traced run."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("mod,name", sorted(tracer.SPANNED))
def test_spanned_names_resolve(mod, name):
    assert callable(getattr(importlib.import_module(f"hodgekit.{mod}"), name))


@pytest.mark.parametrize("mod,cls,attr", sorted(tracer.COUNTED, key=str))
def test_counted_names_resolve(mod, cls, attr):
    owner = importlib.import_module(f"hodgekit.{mod}")
    if cls is not None:
        owner = vars(owner)[cls]
    assert callable(vars(owner)[attr])


@pytest.mark.parametrize("mod", tracer.MODULE_GROUPS)
def test_module_groups_resolve(mod):
    importlib.import_module(f"hodgekit.{mod}")
