"""Spawn-and-measure helper for run.py, kept small on purpose.

Linux carries a process's peak RSS across fork and exec, so a child spawned
by run.py would report run.py's own peak (grown by workload generation and
artifact checks) whenever that is larger than the child's. Children spawned
from this process inherit only its few MiB.

Protocol: one JSON array (argv) per stdin line; one JSON object
{"seconds", "maxrss_kib", "code"} per stdout line. The environment, working
directory and stderr file are this process's own. A child still running
after TIMEOUT_S seconds is killed and reports its signal as a negative code.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 120


def main() -> None:
    for line in sys.stdin:
        argv = json.loads(line)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"seconds": seconds, "maxrss_kib": usage.ru_maxrss, "code": proc.returncode}), flush=True)


if __name__ == "__main__":
    main()
