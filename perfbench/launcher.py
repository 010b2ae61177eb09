"""Runs the benchmark's subprocesses one at a time and reports wall time,
exit code and peak resident size of each.

A child's max-RSS figure includes the resident size of the process it was
forked from, so CLI processes forked from the benchmark (which holds numpy,
scipy and the reference data) would all read about 150 MB. They are
forked from this small process instead.

Protocol: one JSON request per stdin line, ``{"argv", "stdout", "stderr",
"timeout"}``; one JSON reply per stdout line, ``{"wall_s", "code",
"maxrss_kb"}``. End of input ends the launcher.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            watchdog = threading.Timer(request["timeout"], proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
