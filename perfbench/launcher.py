"""Start timed commands on behalf of run.py, and sample the host's speed
while each one runs.

Linux carries the parent's peak resident set into the ru_maxrss of a
child it spawns, so a child started by the harness after set-up (which
trains models in-process) would report the harness's peak as its own.
run.py starts this process first and sends it one JSON request per line:
{"argv", "cwd", "env", "stderr", "timeout"}. It runs each command, kills
it after `timeout` seconds, waits with os.wait4 and answers with one JSON
line: exit code, wall, CPU, peak RSS and the host's speed during the run.
It exits when its stdin closes.

Other guests on a shared host slow the same CPU-bound work by up to half,
in phases of seconds, and each CPU of the guest on its own. So run.py
pins itself, this process and every command to one CPU, and every
SAMPLE_EVERY_S of a command's run this process stops it (SIGSTOP), times
calibrate() on that CPU and resumes it (SIGCONT). The pauses are not
part of the reported wall time. `speed` is CALIBRATE_REF_S over the mean
wall time of the run's calibrations: 1.0 at the reference speed, 0.5 when
the host ran everything half as fast. `cpu_speed` is the same with their
CPU time, which leaves out the time the host did not run this guest's
CPU at all; the command's CPU time leaves that out too.
"""

import gc
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

FIRST_SAMPLE_S = 0.25
SAMPLE_EVERY_S = 0.5
# calibrate() takes this long at the reference speed. The 2-vCPU guest of
# results/ switched between two speeds, at which it took about 0.012 s and
# 0.025 s.
CALIBRATE_REF_S = 0.024


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds one fixed pass of dict, tuple and list work
    takes now.

    The mix is that of tbltag's hot loops: tuple keys of short strings
    looked up in a dict, lists appended to and popped. It allocates about
    1 MB, so this process stays small.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    c0 = time.process_time()
    n_keys = 5000
    words = [f"w{i % 1009}" for i in range(n_keys)]
    tags = [f"T{i % 23:02d}" for i in range(n_keys)]
    table = {}
    for i in range(n_keys):
        table[(tags[i], words[i], tags[i - 1], i % 7)] = [i]
    keys = list(table)
    seen = set()
    x = 12345
    for _ in range(15_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = keys[x % len(keys)]
        rec = table[key]
        rec.append(x)
        if len(rec) > 4:
            rec.pop(0)
        seen.add((key[0], key[2]))
    elapsed = time.perf_counter() - t0, time.process_time() - c0
    if gc_was_enabled:
        gc.enable()
    return elapsed


def watch(pid: int, deadline: float) -> tuple:
    """Wait for the command, pausing it to sample the host's speed.

    Kills it at `deadline`. Returns (exit status, rusage, perf_counter at
    its end, seconds paused, calibrate() results).
    """
    pidfd = os.pidfd_open(pid)
    paused = 0.0
    calibrations = []
    try:
        wait_s = FIRST_SAMPLE_S
        while True:
            left = deadline - time.perf_counter()
            exited, _, _ = select.select([pidfd], [], [], max(0.0, min(wait_s, left)))
            end = time.perf_counter()
            if exited:
                break
            if end >= deadline:
                os.kill(pid, signal.SIGKILL)
                break
            os.kill(pid, signal.SIGSTOP)
            _, status, usage = os.wait4(pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):  # it exited before the signal came
                return status, usage, end, paused, calibrations
            calibrations.append(calibrate())
            os.kill(pid, signal.SIGCONT)
            paused += time.perf_counter() - end
            wait_s = SAMPLE_EVERY_S
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        os.close(pidfd)
    _, status, usage = os.wait4(pid, 0)
    return status, usage, end, paused, calibrations


def run(req: dict) -> dict:
    with open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"], cwd=req["cwd"], env=req["env"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
    status, usage, end, paused, calibrations = watch(proc.pid, t0 + req["timeout"])
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not calibrations:  # a command shorter than FIRST_SAMPLE_S
        calibrations.append(calibrate())
    return {
        "exit": proc.returncode,
        "wall_s": end - t0 - paused,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "paused_s": paused,
        "speed": CALIBRATE_REF_S / statistics.fmean(w for w, _ in calibrations),
        "cpu_speed": CALIBRATE_REF_S / statistics.fmean(c for _, c in calibrations),
        "calibrations": len(calibrations),
    }


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
