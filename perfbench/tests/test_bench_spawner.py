"""Commands forked by the launcher do not inherit this process's peak RSS."""

import json
import os
import subprocess
import sys

import numpy as np

SPAWNER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "spawner.py")


def test_child_peak_rss_is_its_own(tmp_path):
    ballast = np.ones(300 * 2**20 // 8)   # 300 MB resident in this process
    request = {"argv": [sys.executable, "-c", "raise SystemExit(3)"],
               "log": str(tmp_path / "child.log"), "timeout_s": 60}
    proc = subprocess.run([sys.executable, SPAWNER], input=json.dumps(request) + "\n",
                          capture_output=True, text=True, timeout=120, check=True)
    reply = json.loads(proc.stdout)
    assert reply["rc"] == 3
    assert 0 < reply["peak_rss_mb"] < 100
    assert reply["wall_s"] > 0 and reply["cpu_s"] >= 0
    assert ballast.sum() > 0
