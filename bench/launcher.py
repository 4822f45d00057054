"""Small process that starts the benchmark's jobs and times them.

    python bench/launcher.py    (driven over stdin/stdout by run.py)

Each request is one JSON line ``{"argv", "stdout", "stderr", "timeout"}``;
the reply is one JSON line ``{"code", "wall_s", "maxrss_kib"}``. A job
that outlives its timeout is killed and reported with code null.

Linux carries the spawning process's peak RSS into a child's
``ru_maxrss`` at exec, so a child of the harness (which holds large
outputs while it checks them) would report the harness's peak. Spawned
from this process, which stays at about 10 MiB, every job reports its
own peak.
"""

import json
import os
import select
import signal
import sys
import time


def run(argv, stdout, stderr, timeout):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    handle = os.pidfd_open(pid)
    try:
        finished = select.select([handle], [], [], timeout)[0]
        if not finished:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(handle)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status) if finished else None
    return {"code": code, "wall_s": wall, "maxrss_kib": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdout"], request["stderr"],
                    request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
