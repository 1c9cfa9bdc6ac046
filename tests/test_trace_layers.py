"""The benchmark's tracer wraps package functions by name: every one it
lists must exist, or `perfbench/run.py --trace 1` breaks."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from umbrellaforest import pipeline

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def test_every_traced_layer_resolves_on_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert run.LAYERS
    missing = [f"{mod}.{func}" for mod, func, _, _ in run.LAYERS
               if not callable(getattr(importlib.import_module(f"umbrellaforest.{mod}"),
                                       func, None))]
    assert missing == []


def test_parallel_map_keeps_the_call_the_tracer_wraps():
    # `Tracer.install` also replaces `pipeline.parallel_map`, outside the
    # traced layers, by a wrapper taking (fn, items, threads) positionally
    assert list(inspect.signature(pipeline.parallel_map).parameters) == ["fn", "items",
                                                                         "threads"]
    assert pipeline.parallel_map(abs, [-1, 2], 1) == [1, 2]
    calls = [node for path in sorted((ROOT / "src" / "umbrellaforest").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "parallel_map"]
    assert calls and all(len(c.args) == 3 and not c.keywords for c in calls)
