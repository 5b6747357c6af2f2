"""Self-tests of the benchmark itself, at smoke size.

    python3 perfbench/selftest.py

Checks that every workload prints every metric BENCHMARK.json declares,
with its unit; that the gate fails a tampered ``solution.txt``; that the
count metrics repeat exactly between two traced runs; that a cell whose
engine answer was not captured fails; that a hook naming a missing
function only warns; and that the command fails without printing
a result where the program's sources are absent.  Exits non-zero if any
check fails.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

import checkout

HERE = Path(__file__).resolve().parent
SPEC = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
REPEATED_COUNTS = ("routing.calls", "topology.links_built",
                   "milp.build_model.variables", "milp.build_model.rows",
                   "milp.emit.bytes", "milp.validate.violations")


def bench(*argv: str, cwd: Path = checkout.ROOT,
          script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), "--seed", "3",
                           "--seconds", "1", *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def check_metrics(proc, declared: list[dict]) -> dict:
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, result
    assert [m["name"] for m in declared] == list(result["metrics"])
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line
                   for line in proc.stdout.splitlines()), m["name"]
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_smoke_prints_every_metric():
    for w in SPEC["workloads"]:
        values = check_metrics(bench("--workload", w["name"], "--smoke"),
                               SPEC["end_to_end"])
        assert all(v > 0 for v in values.values()), (w["name"], values)


def test_traced_counts_repeat():
    for w in SPEC["workloads"]:
        runs = [check_metrics(bench("--workload", w["name"], "--smoke",
                                    "--trace", "1"), SPEC["per_layer"])
                for _ in range(2)]
        for name in REPEATED_COUNTS:
            assert runs[0][name] == runs[1][name], (w["name"], name, runs)
        assert runs[0]["trace.missing_hooks"] == 0


def _roundtrip_loop(tracer=None):
    import run
    import workloads
    workload = workloads.get("reduced_export_roundtrip", smoke=True)
    return run.run_rounds(workload, 3, checkout.work_dir("selftest"), {},
                          rounds=1, tracer=tracer)


def test_tampered_solution_fails():
    import ponplace.milp as milp
    write = milp.write_solution_values

    def tampered(path, solution, flows):
        path = write(path, solution, flows)
        lines = path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("xuf_"))
        name, value = lines[i].split()
        lines[i] = f"{name} {float(value) * 1.5!r}"
        path.write_text("\n".join(lines) + "\n")
        return path

    assert _roundtrip_loop().failed == 0
    milp.write_solution_values = tampered
    try:
        loop = _roundtrip_loop()
    finally:
        milp.write_solution_values = write
    assert loop.failed / loop.attempted > 0, loop


def test_uncaptured_answer_fails():
    """As if the program called its engine under another name."""
    import run
    import tracing
    import workloads
    installed = tracing.Capture.installed
    tracing.Capture.installed = lambda self: contextlib.nullcontext()
    try:
        for name in ("paper_eepiv_sweep", "reduced_export_roundtrip"):
            loop = run.run_rounds(workloads.get(name, smoke=True), 3,
                                  checkout.work_dir("selftest"), {}, rounds=1)
            assert loop.attempted > 0 and loop.failed == loop.attempted, loop
            assert all("engine answer not captured" in p
                       for p in loop.problems), loop.problems
    finally:
        tracing.Capture.installed = installed


def test_missing_hook_only_warns():
    import tracing
    tracer = tracing.Tracer(tracing.HOOKS + (
        tracing.Hook("routing", "ponplace.routing.no_such_function"),))
    loop = _roundtrip_loop(tracer)
    assert loop.failed == 0, loop.problems
    assert tracer.warnings == ["hook ponplace.routing.no_such_function not "
                               "found: calls through it are not traced"]
    metrics = tracer.metrics(sum(loop.durations), 0.0)
    assert metrics["trace.missing_hooks"] == 1
    assert metrics["routing.calls"] > 0


def test_fails_without_sources():
    bare = checkout.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(checkout.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(checkout.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    for trace in ("0", "1"):
        proc = bench("--workload", "paper_eepiv_sweep", "--trace", trace,
                     cwd=bare, script=bare / "perfbench" / "run.py")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    checkout.use_checkout_source()
    failures = 0
    for name, test in list(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            test()
            print(f"PASS {name}")
        except Exception:
            failures += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
