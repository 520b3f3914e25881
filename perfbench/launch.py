"""Run one command to exit and print its wall time and rusage as JSON.

    python3 -I -S perfbench/launch.py STDOUT_FILE STDERR_FILE PROGRAM [ARG ...]

``run.py`` measures every child through this small process because Linux
carries the spawning process's peak RSS into the child's ``ru_maxrss``;
spawned from here, the floor is this process's own few megabytes.
"""

import json
import os
import sys
import time


def main() -> None:
    stdout_path, stderr_path, *command = sys.argv[1:]
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(command[0], command, os.environ, file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    print(json.dumps({
        "returncode": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }))


if __name__ == "__main__":
    main()
