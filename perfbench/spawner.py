"""Small process that starts and reaps every measured child of the benchmark.

On Linux a child's peak RSS (ru_maxrss) starts from the RSS of the process
that spawned it, so children started by run.py itself would report run.py's
memory whenever it is larger than their own.  This script runs as
`python3 -S -I perfbench/spawner.py`, stays small, and spawns each child.

Protocol on stdin/stdout, one JSON object per line:
  request:  {"argv": [...], "env": {...}, "stdout": path, "stderr": path}
  replies:  {"pid": n} once the child is started, then
            {"status": s, "wall_s": w, "cpu_s": c, "maxrss_kb": m} once it ended.
Children run in this process's working directory with stdin from /dev/null.
It exits when stdin closes.
"""

import json
import os
import sys
import time


def main():
    for line in sys.stdin:
        request = json.loads(line)
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0)]
        for fd, key in ((1, "stdout"), (2, "stderr")):
            flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
            actions.append((os.POSIX_SPAWN_OPEN, fd, request[key], flags, 0o644))
        start = time.perf_counter()
        pid = os.posix_spawn(
            request["argv"][0], request["argv"], request["env"], file_actions=actions
        )
        _reply({"pid": pid})
        _, status, usage = os.wait4(pid, 0)
        _reply({
            "status": status,
            "wall_s": time.perf_counter() - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        })


def _reply(message):
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
