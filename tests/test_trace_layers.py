"""The benchmark's tracer wraps package functions by name: every one it
lists must exist, or `perfbench/run.py --trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_every_traced_layer_resolves_on_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert run.LAYERS
    missing = [f"{mod}.{func}" for mod, func, _, _ in run.LAYERS
               if not callable(getattr(importlib.import_module(f"umbrellaforest.{mod}"),
                                       func, None))]
    assert missing == []
