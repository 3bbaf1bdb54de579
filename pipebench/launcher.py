"""Lean launcher for the benchmark's CLI children (standard library only).

A child's peak RSS as reported by ``wait4`` includes the RSS of the process
it was forked from, so a child started by a parent holding large images
would report the parent's size. This launcher is started before the parent
imports numpy and stays small; it starts each child, waits for it and
reports the child's own wall time, peak RSS and exit code.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "stdout": path, "stderr": path}``; one JSON reply per line
on stdout, ``{"wall_s": float, "maxrss_kb": int, "exit": int}``. The
launcher exits when stdin closes.
"""

import json
import os
import sys
import time

_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def run(argv, stdout_path, stderr_path):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, _FLAGS, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, _FLAGS, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
        "exit": os.waitstatus_to_exitcode(status),
    }


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["argv"], req["stdout"], req["stderr"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
