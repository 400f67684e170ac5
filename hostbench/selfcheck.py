#!/usr/bin/env python3
"""Self-check of the host benchmark at tiny sizes (about 30 s).

    python3 hostbench/selfcheck.py

For every workload it checks that

* an untraced and a traced run each pass their correctness gate and
  print exactly the metrics ``BENCHMARK.json`` names, each with its unit;
* a tampered reference digest is reported as a failed operation and the
  command exits non-zero;
* on the traced run, each rank's outermost spans cover its measured
  worker wall-clock to within ``SPAN_SLACK``, and the Chrome trace file
  is valid trace-event JSON whose slices nest on every track;

and that the command fails without printing a result when the program
sources are absent.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
OUT = ROOT / ".hostbench"

#: uncovered share of a rank's wall-clock the span check tolerates: the
#: induction loop's own bookkeeping between phases (tree assembly,
#: termination tests) and worker entry/exit sit outside every span
SPAN_SLACK = 0.10
#: float slack when comparing microsecond timestamps of nested slices
EPS_US = 1.0


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, result


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"selfcheck: FAILED {what}")
        sys.exit(1)


def check_result(result, spec_metrics: list[dict], what: str) -> None:
    expect(result is not None, f"{what}: no JSON result line")
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0
           and result["attempted"] >= 1, f"{what}: correctness gate")
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == want, f"{what}: metrics/units differ: "
           f"missing {sorted(set(want) - set(got))}, "
           f"extra {sorted(set(got) - set(want))}")
    expect(all(isinstance(v["value"], float)
               for v in result["metrics"].values()),
           f"{what}: non-numeric metric value")


def check_chrome(path: Path, what: str) -> None:
    trace = json.loads(path.read_text())
    events = trace["traceEvents"]
    by_track: dict = {}
    for ev in events:
        expect(ev["ph"] in ("X", "M") and isinstance(ev["name"], str)
               and isinstance(ev["pid"], int) and isinstance(ev["tid"], int),
               f"{what}: malformed event {ev}")
        if ev["ph"] == "X":
            expect(ev["dur"] >= 0, f"{what}: negative duration {ev}")
            by_track.setdefault(ev["tid"], []).append(ev)
    expect(len(by_track) >= 3, f"{what}: expected the benchmark's + 2 rank tracks")
    for tid, slices in by_track.items():
        stack: list[float] = []
        for ev in sorted(slices, key=lambda e: (e["ts"], -e["dur"])):
            while stack and stack[-1] <= ev["ts"] + EPS_US:
                stack.pop()
            end = ev["ts"] + ev["dur"]
            expect(not stack or end <= stack[-1] + EPS_US,
                   f"{what}: slice {ev['name']} overlaps its parent on "
                   f"track {tid}")
            stack.append(end)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        name = wl["name"]
        base = ["--workload", name, "--seed", "7", "--seconds", "1",
                "--tiny"]
        proc, result = run(base + ["--trace", "0"])
        expect(proc.returncode == 0, f"{name} trace 0 exit "
               f"{proc.returncode}: {proc.stderr[-500:]}")
        check_result(result, spec["end_to_end"], f"{name} trace 0")

        proc, result = run(base + ["--trace", "1"])
        expect(proc.returncode == 0, f"{name} trace 1 exit "
               f"{proc.returncode}: {proc.stderr[-500:]}")
        check_result(result, spec["per_layer"], f"{name} trace 1")
        out = OUT / f"{name}-seed7"
        spans = json.loads((out / "spans.json").read_text())
        for rank in spans["ranks"]:
            expect(rank["coverage"]["spans"] >= 1.0 - SPAN_SLACK,
                   f"{name}: rank {rank['rank']} spans cover only "
                   f"{rank['coverage']['spans']:.3f} of its wall-clock")
        expect(len(spans["rows"]) > 0, f"{name}: empty span file")
        check_chrome(out / "chrome_trace.json", name)

        proc, result = run(base + ["--trace", "0", "--tamper-reference"])
        expect(proc.returncode != 0, f"{name}: tampered run exited 0")
        expect(result is not None and result["failed"] >= 1
               and not result["correct"],
               f"{name}: tampered digest not counted as failed")
        print(f"selfcheck: {name} ok")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*spec["command"], "--workload", spec["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "bare directory run printed a result or exited 0")
    print("selfcheck: bare directory refused ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
