"""Benchmark of the `tbltag` command line on generated corpora.

    python3 perfbench/run.py --workload train-50k --seed 0 --seconds 20 --trace 0

Run from the repository root. Set-up generates the workload's inputs with
`tbltag.synth` from --seed and builds the reference outputs. The untraced
run (--trace 0) is a closed loop with one client: it runs the workload's
`tbltag` command in a fresh subprocess, one at a time, in rounds over the
workload's inputs for about --seconds (at least one round), checks each
run's output against its reference and reports medians. Times are
corrected for the host's speed, which launcher.py samples while each
command runs; the harness and its commands are pinned to one CPU for
this. The traced run
(--trace 1) runs the command on the first input once untraced and once
in-process under layers.Tracer, and reports the per-layer metrics. See
perfbench/README.md.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics, whose names
and units are those of BENCHMARK.json. Every run also writes its full
result, with machine facts, to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from layers import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# A run must end within 180 s. Timed commands are killed so that a result
# can still be printed by RESULT_BY_S; anything else still running at
# ABORT_AT_S ends the run without a result.
RESULT_BY_S = 150
ABORT_AT_S = 170
STARTED = time.perf_counter()


@dataclass
class Sample:
    wall_s: float  # at the reference speed: raw_wall_s * speed
    cpu_s: float  # at the reference speed: measured * cpu_speed
    peak_rss_mb: float
    ok: bool
    raw_wall_s: float  # as measured
    speed: float  # host speed during the run, launcher.py's scale


def pin_to_one_cpu() -> int:
    """Pin this process, and so the launcher and every command, to one CPU.

    Each CPU of a shared-host guest is slowed on its own, so the host's
    speed is sampled on the CPU the command runs on.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
    }


class Launcher:
    """The launcher.py process, started before set-up grows this one."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )

    def run(self, argv: list[str], cwd: Path, stderr: Path, timeout: float) -> dict:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        req = {"argv": argv, "cwd": str(cwd), "env": env, "stderr": str(stderr),
               "timeout": timeout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        """Stop the launcher and any command it still runs."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


def time_left() -> float:
    return max(1.0, RESULT_BY_S - (time.perf_counter() - STARTED))


def run_cli(launcher: Launcher, case, workdir: Path) -> Sample:
    """One untraced run of the command in a fresh interpreter."""
    case.output.unlink(missing_ok=True)
    stderr = workdir / "stderr.txt"
    r = launcher.run([sys.executable, "-m", "tbltag", *case.argv], workdir, stderr, time_left())
    ok = r["exit"] == 0 and output_ok(case)
    if not ok:
        tail = stderr.read_text(errors="replace")[-2000:]
        print(f"run failed: exit {r['exit']}\n{tail}", file=sys.stderr)
    speed = r["speed"]
    return Sample(r["wall_s"] * speed, r["cpu_s"] * r["cpu_speed"], r["peak_rss_mb"], ok,
                  r["wall_s"], speed)


def setup_step(launcher: Launcher, argv: list[str], workdir: Path) -> float:
    """Run one set-up command; its wall time at the reference speed."""
    stderr = workdir / "stderr.txt"
    r = launcher.run(argv, workdir, stderr, time_left())
    if r["exit"] != 0:
        tail = stderr.read_text(errors="replace")[-2000:]
        raise RuntimeError(f"set-up step {argv[1:]} failed: exit {r['exit']}\n{tail}")
    return r["wall_s"] * r["speed"]


def output_ok(case) -> bool:
    return case.output.is_file() and case.output.read_bytes() == case.expected


def measure(launcher: Launcher, prep, workdir: Path, seconds: float) -> list[Sample]:
    """Closed loop, one client, in rounds that run every case once.

    There is always one round; another starts only if it should end
    within `seconds`.
    """
    samples = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for case in prep.cases:
            s = run_cli(launcher, case, workdir)
            samples.append(s)
            print(f"  run {len(samples)}: wall {s.wall_s:.4f} s, cpu {s.cpu_s:.4f} s "
                  f"(measured {s.raw_wall_s:.4f} s at speed {s.speed:.3f}), "
                  f"peak RSS {s.peak_rss_mb:.1f} MB, output {'ok' if s.ok else 'WRONG'}")
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return samples


def untraced_metrics(workload, prep, samples: list[Sample]) -> dict[str, float]:
    wall = statistics.median(s.wall_s for s in samples)
    failed = sum(not s.ok for s in samples)
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "tokens_per_s": workload.tokens / wall,
        "setup_s": prep.setup_s,
        "ok_frac": (len(samples) - failed) / len(samples),
    }


def traced_run(case):
    """One in-process run under the tracer; returns (metrics, spans, ok)."""
    import tbltag.cli

    case.output.unlink(missing_ok=True)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        code = tbltag.cli.main(list(case.argv))
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    ok = code == 0 and output_ok(case)
    return tracer.metrics(wall), tracer.span_records(), ok


def _abort(signum, frame):
    raise TimeoutError(f"run not done after {ABORT_AT_S} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, _abort)
    signal.alarm(ABORT_AT_S)

    if not (SRC / "tbltag" / "__init__.py").is_file():
        print(f"error: no tbltag sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, prepare

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    facts = machine_facts()
    facts["pinned_cpu"] = pin_to_one_cpu()
    print(f"machine: {facts}")
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")

    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    launcher = Launcher()
    try:
        prep = prepare(workload, args.seed, workdir,
                       lambda argv: setup_step(launcher, argv, workdir))
        gc.collect()
        print(f"setup {prep.setup_s:.4f} s; reference output {prep.reference_s:.4f} s "
              f"(not in setup_s)")
        for case in prep.cases:
            print(f"command: tbltag {' '.join(case.argv)}")
        if args.trace:
            untraced = run_cli(launcher, prep.cases[0], workdir)
            metrics, spans, traced_ok = traced_run(prep.cases[0])
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced.raw_wall_s
            samples = [untraced]
            oks = [untraced.ok, traced_ok]
            wanted = spec["per_layer"]
        else:
            samples = measure(launcher, prep, workdir, args.seconds)
            metrics = untraced_metrics(workload, prep, samples)
            oks = [s.ok for s in samples]
            wanted = spec["end_to_end"]
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
    facts["loadavg_end"] = os.getloadavg()
    speeds = [s.speed for s in samples]
    facts["speed"] = {"min": min(speeds), "median": statistics.median(speeds),
                      "max": max(speeds)}
    print(f"machine at end: loadavg {facts['loadavg_end']}, host speed {facts['speed']}")

    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    result = {
        "correct": all(oks),
        "attempted": len(oks),
        "failed": oks.count(False),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(f"metrics ({len(oks)} runs; failed_frac {result['failed'] / len(oks):.6g}):")
    for m in wanted:
        print(f"  {m['name']:28s} {metrics[m['name']]:.6g} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    stem = (f"{workload.name}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "machine": facts, "setup_s": prep.setup_s, **result}
    if args.trace:
        self_s = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
        wall = metrics["trace.wall_s"]
        print(f"self time per layer, traced wall {wall:.4f} s:")
        for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print(f"  {name.removesuffix('.self_s'):12s} {value:10.4f} s {100 * value / wall:6.2f}%")
        print(f"  sum          {sum(self_s.values()):10.4f} s")
        record["spans"] = len(spans)
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans))
    record["samples"] = [vars(s) for s in samples]
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
