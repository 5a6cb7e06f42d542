"""Run one command; report its wall time, CPU time, peak RSS and exit code,
and the speed of the machine while it ran.

    python3 bench/spawn.py TIMEOUT_S REFERENCE_EVERY_S REPORT_FD CMD [ARGS...]

``run.py`` starts every measured child through this launcher.  The peak
RSS that ``wait4`` reports for a process includes the resident size of
the process it was spawned from, and the heap of ``run.py`` grows as it
checks outputs.  Spawned from this small interpreter instead, the
command's peak RSS is its own.  The command inherits stdin, stdout and
stderr, and is killed if it runs longer than TIMEOUT_S.

The single-thread speed of a shared machine drifts by 10-30% within a
minute.  So every REFERENCE_EVERY_S seconds the command is stopped, a
fixed reference loop is timed here, and the command is continued;
``ref_s`` is the mean of those times (one loop after exit for a command
shorter than that).  REFERENCE_EVERY_S 0 turns this off: the command is
never stopped and ``ref_s`` is 0.  The loop mixes 288-bit mpmath functions and big rationals, the
work of the formula path and of the oracle, and does not depend on the
code under test.  Both processes are pinned to one CPU, so the loop runs
where the command runs.  ``wall_s`` is the time from spawn to exit minus
the time the command was stopped.

The report is one JSON object written to file descriptor REPORT_FD.
"""

import json
import os
import select
import signal
import sys
import time
from fractions import Fraction

def reference_s() -> float:
    """Time a fixed mix of 288-bit mpmath and big-rational arithmetic,
    about 0.08 s on a 2-core x86_64 VM."""
    import mpmath  # imported here, after the spawn, so the command's RSS excludes it

    a, b = Fraction(7**900, 3**400), Fraction(5**700, 2**900)
    start = time.perf_counter()
    with mpmath.workprec(288):
        x, total = mpmath.mpf(1) / 3, mpmath.mpf(0)
        for i in range(1, 650):
            total += mpmath.cos(x * i) * mpmath.exp(x / i)
    for _ in range(700):
        a, b = b, a + b / 7
    return time.perf_counter() - start


def main() -> int:
    timeout_s, every_s, report_fd, argv = float(sys.argv[1]), float(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # inherited by the command
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    refs, stopped_s = [], 0.0
    exited = os.pidfd_open(pid)  # readable once the command exits
    try:
        while not select.select([exited], [], [], every_s or None)[0]:
            stop = time.perf_counter()
            os.kill(pid, signal.SIGSTOP)
            # WNOWAIT: an exit seen here is left for wait4 to reap
            if os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT).si_code != os.CLD_STOPPED:
                break
            if not refs:
                reference_s()  # warm-up: imports mpmath and fills its caches
            refs.append(reference_s())
            os.kill(pid, signal.SIGCONT)
            stopped_s += time.perf_counter() - stop
    finally:
        os.close(exited)
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.perf_counter() - start - stopped_s
    signal.setitimer(signal.ITIMER_REAL, 0)
    if every_s and not refs:
        reference_s()
        refs.append(reference_s())
    report = {
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "ref_s": sum(refs) / len(refs) if refs else 0.0,
        "returncode": os.waitstatus_to_exitcode(status),
    }
    with os.fdopen(report_fd, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
