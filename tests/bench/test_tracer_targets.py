"""Every entry point the per-layer benchmark tracer wraps still resolves.

``livebench.tracer.Tracer.install`` patches its ``TRACED`` targets by
name: a module attribute, or an attribute found in a class's *own*
``__dict__`` (an inherited method would be patched on the wrong class).
Renaming or moving one of them would otherwise only surface in a traced
benchmark run.  The resolution below mirrors ``install`` exactly and
patches nothing.
"""

import importlib

import pytest

from livebench.tracer import TRACED


def resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


@pytest.mark.parametrize(
    "module_name, path", [(module, path) for module, path, _metric, _layer in TRACED]
)
def test_traced_entry_point_resolves(module_name, path):
    assert callable(resolve(module_name, path))


def test_both_client_front_doors_are_traced():
    paths = {path for _module, path, _metric, _layer in TRACED}
    assert {"CompilerClient.dispatch", "ShardedClient.dispatch"} <= paths
