"""Only the exit DP loads scipy.

Importing the package, and every CLI stage that never reaches
`environment.exit_table`, must leave scipy unloaded.  Each check runs in a
fresh interpreter, because this test process has already imported scipy
through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# argv[1]: a JSON list of groups of CLI argument lists.  Runs each group's
# stages in order and prints, as its last line, the scipy modules loaded
# after each group.
_PROBE = """
import json, sys
import umbrellaforest, umbrellaforest.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = []
for group in json.loads(sys.argv[1]):
    for args in group:
        code = umbrellaforest.cli.main(args)
        if code != 0:
            sys.exit(f"stage {args[0]} exited {code}")
    loaded.append(scipy_modules())
print(json.dumps(loaded))
"""


def scipy_after(*groups):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    got = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(groups)], env=env,
                         capture_output=True, text=True, timeout=600)
    assert got.returncode == 0, got.stderr
    return json.loads(got.stdout.splitlines()[-1])


def stage_args(stage, out, extra=()):
    # the `tests/test_cli.py` instance
    return [stage, "--dim", "3", "--window", "22", "--margin", "7", "--seed", "12",
            "--out", str(out), *extra]


def test_import_loads_no_scipy():
    assert scipy_after([]) == [[]]


def test_only_env_stage_loads_scipy(tmp_path):
    out = tmp_path / "run"
    before_env, after_env = scipy_after(
        [stage_args(s, out) for s in ("gen", "forest", "metrics", "prune")],
        [stage_args("env", out)])
    assert before_env == []
    assert "scipy.sparse" in after_env  # the probe sees the exit DP's import
    [walk_report] = scipy_after(
        [stage_args("walk", out, ("--horizon", "300", "--replicas", "40")),
         stage_args("report", out)])
    assert walk_report == []
