"""Every script under demos/ runs to completion against this checkout."""

import glob
import os
import subprocess
import sys

import pytest

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_DEMOS = sorted(glob.glob(os.path.join(_REPO, "demos", "*.py")))


@pytest.mark.parametrize("script", _DEMOS, ids=os.path.basename)
def test_demo_runs(script, tmp_path):
    # run from tmp_path so the files a demo writes under out/ land there
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(_REPO, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
