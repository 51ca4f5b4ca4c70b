"""Child-process launcher that keeps a small memory footprint.

On Linux a child's ``ru_maxrss`` starts at the peak RSS of the process it
was forked from, because exec records the old address space's high-water
mark. A benchmark process that has imported numpy and built grids would put
a floor under every command's ``peak_rss_mb``. So ``run.py`` forks every
timed command from this stdlib-only launcher, whose own peak stays small.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "log": path, "timeout_s": seconds}``; one JSON reply per
line on stdout, ``{"wall_s", "cpu_s", "peak_rss_mb", "rc"}``. Wall time runs
from spawn to exit; CPU time and peak RSS come from ``os.wait4``. A child
still running at ``timeout_s`` is killed. The launcher exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, log_path, timeout_s) -> dict:
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout_s, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["log"], request["timeout_s"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
