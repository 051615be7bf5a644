"""The package's public surface: ``cmestream.__all__`` and the names that
``cmestream/__init__.py`` binds agree, so a removed name cannot linger in
one place and not the other; and every name the benchmark wraps exists."""

import ast
import importlib
import types
from pathlib import Path

import cmestream

BENCH_LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_every_listed_name_resolves():
    assert len(set(cmestream.__all__)) == len(cmestream.__all__)
    assert [n for n in cmestream.__all__ if not hasattr(cmestream, n)] == []


def test_every_public_name_is_listed():
    public = {name for name, value in vars(cmestream).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public - set(cmestream.__all__) == set()


def bench_targets():
    """``TARGETS`` of ``bench/layers.py``, read from its source unimported."""
    tree = ast.parse(BENCH_LAYERS.read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))


def test_every_benchmark_wrap_resolves():
    """The traced benchmark wraps each ``(owner, attr)`` of ``TARGETS`` by
    ``getattr``, so a name deleted from the program fails every traced run."""
    targets = bench_targets()
    missing = []
    for span, owner, attr in targets:
        mod, _, cls = owner.partition(".")
        obj = importlib.import_module(f"cmestream.{mod}")
        if not hasattr(getattr(obj, cls) if cls else obj, attr):
            missing.append(span)
    assert targets
    assert missing == []
