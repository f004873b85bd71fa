"""The repository benchmark's traced server still finds its patch points.

``repobench/traced_server.py`` wraps named entry points of the service
layers (``Tenant.snapshot_state``, ``PlaneReduction.residual``, ...) in
spans before it starts the server.  Renaming one of them would only show
when a traced benchmark run breaks; starting the script with ``--help``
installs every patch and exits, so a rename fails this suite instead.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_traced_server_installs_every_patch():
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, str(REPO / "repobench" / "traced_server.py"),
         "--help"],
        env=env, cwd=REPO, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout
