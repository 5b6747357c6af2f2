"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_eepiv_sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics: the median set-up
time of fresh interpreters, then a closed loop of rounds for ``--seconds``
seconds of timed calls, all at the reference machine speed of
``speed.py``.  With ``--trace 1`` it runs a fixed number of
rounds twice, untraced and then with spans recorded at every layer
boundary, and prints the per-layer metrics.  Every round's outputs pass
through the correctness gate.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when no cell failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checkout
import speed
import tracing

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("paper_eepiv_sweep", "reduced_exact_sweep",
                  "reduced_export_roundtrip")
DEFAULT_SEED = 1
SETUP_RUNS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("round_ms.p50", "ms"),
    ("round_ms.p90", "ms"),
    ("peak_rss_mb", "MiB"),
)


@dataclass
class Loop:
    """Timed rounds and the gate's verdicts on the cells they ran."""

    durations: list[float] = field(default_factory=list)
    peaks_mib: list[float] = field(default_factory=list)
    #: False when the peaks could not be reset and cover the whole process.
    peaks_per_round: bool = True
    speed_windows: list[speed.Window] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def reference_durations(self) -> list[float]:
        """Round times at the reference machine speed; a round too short
        to hold a probe uses the mean probe of the whole loop."""
        probes = [p for window in self.speed_windows for p in window.probes]
        fallback = statistics.fmean(probes) if probes \
            else speed.REFERENCE_PROBE_S
        return [window.reference_s(wall, fallback)
                for wall, window in zip(self.durations, self.speed_windows)]


def reset_peak_rss() -> bool:
    """Reset this process's peak resident memory mark, so that the next
    reading covers only what runs after it.  False where the kernel does
    not allow it; readings then cover the whole process."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_mib() -> float:
    """This process's peak resident memory since the last reset."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rounds(workload, seed: int, work: Path, refs: dict, *,
               seconds: float | None = None, rounds: int | None = None,
               tracer=None) -> Loop:
    """Closed loop: run rounds until ``seconds`` of timed calls or
    ``rounds`` rounds have passed, gating each round after its timed
    call.  Each round's peak memory is read before its gate runs."""
    loop = Loop()
    sampler = speed.Sampler()
    inputs = workload.inputs(seed)
    while (len(loop.durations) < rounds if rounds is not None
           else sum(loop.durations) < seconds):
        inp = next(inputs)
        for stale in work.iterdir():
            stale.unlink()
        capture = tracing.Capture(workload.captured)
        error = None
        with capture.installed(), sampler.running(), \
                (tracer.installed() if tracer else nullcontext()):
            loop.peaks_per_round &= reset_peak_rss()
            mark = sampler.mark()
            start = time.perf_counter()
            try:
                outcome = workload.run(inp, work)
            except (Exception, SystemExit):
                error = traceback.format_exc()
            loop.durations.append(time.perf_counter() - start)
            loop.speed_windows.append(sampler.since(mark))
            loop.peaks_mib.append(peak_rss_mib())
        if error is None:
            try:
                verdicts = workload.check(inp, outcome, capture, refs, work)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            verdicts = {cid: [error] for cid in workload.cell_ids(inp)}
        loop.attempted += len(verdicts)
        for cid, problems in verdicts.items():
            loop.failed += bool(problems)
            loop.problems += [f"{cid}: {p}" for p in problems]
        # Drop this round's outputs before the next round's peak is taken.
        outcome = capture = None
    return loop


def setup_times(workload: str, seed: int,
                runs: int) -> list[tuple[float, float]]:
    """Seconds to import ponplace, build the first instance and run a
    warm-up cell, each in a fresh interpreter: (wall, reference) pairs."""
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             "--workload", workload, "--seed", str(seed)],
            cwd=checkout.ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        wall, reference = proc.stdout.split()[-2:]
        times.append((float(wall), float(reference)))
    return times


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _git_sha() -> str | None:
    git = checkout.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(args) -> dict:
    """What a result needs to be compared with another: the code, the
    toolchain, the machine and the inputs."""
    source = hashlib.sha256()
    for path in sorted((checkout.SRC / "ponplace").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "git_sha": _git_sha(), "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
    }


@dataclass
class Report:
    """One run's metrics, ready to print and record."""

    metrics: dict[str, float]
    units: dict[str, str]
    notes: dict[str, str]
    loops: list[Loop]
    extra: dict = field(default_factory=dict)


def measure_end_to_end(args, workload, work: Path, refs: dict) -> Report:
    """Set-up probes, then a closed loop for ``args.seconds`` seconds."""
    setup = setup_times(args.workload, args.seed,
                        1 if args.smoke else SETUP_RUNS)
    workload.warm_up(args.seed, work)
    loop = run_rounds(workload, args.seed, work, refs, seconds=args.seconds)
    passed = loop.attempted - loop.failed
    wall_ms = [d * 1e3 for d in loop.durations]
    rounds_ms = [d * 1e3 for d in loop.reference_durations()]
    wall = {
        "setup_s": statistics.median(w for w, _ in setup),
        "cells_per_s": passed / sum(loop.durations),
        "round_ms.p50": percentile(wall_ms, 50),
        "round_ms.p90": percentile(wall_ms, 90),
    }
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setup),
        "cells_per_s": passed * 1e3 / sum(rounds_ms),
        "round_ms.p50": percentile(rounds_ms, 50),
        "round_ms.p90": percentile(rounds_ms, 90),
        "peak_rss_mb": max(loop.peaks_mib),
    }
    notes = {name: f"wall {value:.6g}" for name, value in wall.items()}
    notes["setup_s"] += f"; median of {len(setup)} fresh interpreters"
    notes["peak_rss_mb"] = (f"largest of {len(loop.peaks_mib)} rounds' "
                            f"peaks, gate excluded" if loop.peaks_per_round else
                            "whole process: peak could not be reset")
    notes["cells_per_s"] += (f"; {passed} validated cells in "
                             f"{sum(loop.durations):.3f} s wall")
    for name in ("round_ms.p50", "round_ms.p90"):
        notes[name] += f"; n={len(rounds_ms)} rounds"
    speeds = [speed.REFERENCE_PROBE_S / p for window in loop.speed_windows
              for p in window.probes]
    print(f"  machine speed during rounds: median "
          f"{statistics.median(speeds):.3f} of reference over "
          f"{len(speeds)} probes")
    return Report(metrics, dict(END_TO_END), notes, [loop],
                  {"median_speed": statistics.median(speeds),
                   "probes": len(speeds), "wall_metrics": wall,
                   "peak_rss_per_round": loop.peaks_per_round})


def measure_layers(args, workload, work: Path, refs: dict,
                   stem: str) -> Report:
    """The same fixed rounds untraced, then traced; writes the spans."""
    workload.warm_up(args.seed, work)
    base = run_rounds(workload, args.seed, work, refs,
                      rounds=workload.traced_rounds)
    tracer = tracing.Tracer()
    traced = run_rounds(workload, args.seed, work, refs,
                        rounds=workload.traced_rounds, tracer=tracer)
    wall_s = sum(traced.durations)
    metrics = tracer.metrics(wall_s, sum(traced.reference_durations())
                             - sum(base.reference_durations()))
    units = dict(tracing.PER_LAYER)
    notes = {name: f"base trace.wall_s over {len(traced.durations)} rounds"
             for name in units if name.endswith(".share")}
    for warning in tracer.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    shares = {group: t["self"] / wall_s
              for group, t in tracer.group_times().items()}
    shares["(outside every hook)"] = 1.0 - sum(shares.values())
    print("  self-time share of trace.wall_s by layer:")
    for group, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"    {group:32s} {share:8.2%}")
    tracer.dump(checkout.WORK / f"spans-{stem}.json",
                {"fingerprint": fingerprint(args)})
    return Report(metrics, units, notes, [base, traced])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grid and one set-up run, for self-tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        checkout.use_checkout_source()
    except checkout.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.get(args.workload, smoke=args.smoke)
    refs = json.loads((HERE / "references.json").read_text())[args.workload]
    work = checkout.work_dir(args.workload)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    report = (measure_layers(args, workload, work, refs, stem) if args.trace
              else measure_end_to_end(args, workload, work, refs))

    attempted = sum(loop.attempted for loop in report.loops)
    failed = sum(loop.failed for loop in report.loops)
    problems = [p for loop in report.loops for p in loop.problems]
    for problem in problems[:10]:
        print(f"FAIL {problem}", file=sys.stderr)
    for name, value in report.metrics.items():
        note = f"  ({report.notes[name]})" if name in report.notes else ""
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:34s} {shown} {report.units[name]}{note}")
    print(f"  {'fail_ratio':34s} {failed / attempted:>14.6g} ratio  "
          f"({failed}/{attempted} cells)")

    metrics = {n: {"value": v, "unit": report.units[n]}
               for n, v in report.metrics.items()}
    record = {"fingerprint": fingerprint(args),
              "attempted": attempted, "failed": failed,
              "rounds": [len(loop.durations) for loop in report.loops],
              "metrics": metrics, **report.extra,
              "problems": problems[:100]}
    with open(checkout.WORK / f"result-{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print("fingerprint " + json.dumps(record["fingerprint"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
