"""The benchmark's span names and the names its worker reads resolve in the package.

``bench/run.py`` names traced callables by ``module.qualname`` relative to
``secgenus`` (``hrr.h0_certified``, ``report.VerificationReport.to_json``);
an entry ending in ``.`` or ``_`` is a prefix.  ``bench/worker.py`` reaches
the package through ``sys.modules["secgenus.<module>"]``.  A deleted or
renamed name fails here instead of in a benchmark run.  ``bench/`` is only
read.
"""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _span_names() -> list[str]:
    run = _bench_run()
    return sorted({span for span, _ in run.LAYERS.values()} | set(run.NONZERO_ON))


def _worker_names() -> set[str]:
    """Dotted names the worker reads off ``sys.modules["secgenus.<module>"]``, directly
    or through a local name bound to one.

    A name read by ``getattr`` with a default is optional: the worker runs without it.
    """
    tree = ast.parse((BENCH / "worker.py").read_text())
    aliases: dict[str, str] = {}

    def dotted(node) -> str | None:
        if isinstance(node, ast.Subscript) and ast.unparse(node.value) == "sys.modules":
            key = node.slice.value if isinstance(node.slice, ast.Constant) else ""
            return key.partition("secgenus.")[2] or None
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if isinstance(node, ast.Attribute) and not node.attr.startswith("__"):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    nodes = list(ast.walk(tree))
    for node in nodes:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if (path := dotted(node.value)) is not None:
                aliases[node.targets[0].id] = path
    paths = (dotted(node) for node in nodes)
    return {path for path in paths if path and "." in path}  # attributes, not bare modules


def _resolve(name: str):
    module_name, _, qualname = name.partition(".")
    module = importlib.import_module(f"secgenus.{module_name}")
    return module, functools.reduce(getattr, qualname.split("."), module)


def test_worker_names_are_found():
    # the extractor itself must see what the worker is known to call
    names = _worker_names()
    assert {"hrr.h0_certified", "classify.classify_variety", "cli.main"} <= names
    assert {"report.VerificationReport.add", "adjoint.DifferenceRequest.build"} <= names


@pytest.mark.parametrize("name", _span_names())
def test_bench_span_name_resolves_to_a_callable(name):
    if name.endswith((".", "_")):
        module_name, _, prefix = name.partition(".")
        module = importlib.import_module(f"secgenus.{module_name}")
        assert any(
            attr.startswith(prefix) and callable(value) and value.__module__ == module.__name__
            for attr, value in vars(module).items()
        ), name
        return
    module, obj = _resolve(name)
    assert callable(obj), name
    # the tracer labels a callable by the module that defines it
    assert obj.__module__ == module.__name__, name


@pytest.mark.parametrize("name", sorted(_worker_names()))
def test_worker_name_resolves(name):
    _, obj = _resolve(name)
    assert callable(obj), name
