#!/usr/bin/env python3
"""Host benchmark of the ScalParC reproduction: one workload, one seed.

Run from the repository root::

    python3 hostbench/run.py --workload quest-f2-batch --seed 1 \
        --seconds 35 --trace 0

``--trace 0`` times untraced ``ScalParC.fit`` / ``fit_stream`` calls and
prints the end-to-end metrics; ``--trace 1`` alternates untraced and
traced fits and prints the per-layer metrics (and writes the span files
under ``.hostbench/``).  Every fit is checked; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".hostbench"

#: ranks of every workload: the core count of the 2-core design host
P = 2
TEST_RECORDS = 200_000
#: Quest draw of every training set; on the batch workloads --seed
#: permutes its record order.  Fresh F2 draws are bimodal (23-54 nodes or
#: 4 900-8 000 nodes over seeds 0-9), which would swing fit times 2x
#: between seeds; seed 1 is in the large-tree regime the workloads are
#: meant to profile.  The stream keeps the draw's own order: arrival order
#: shapes a streamed tree, and one permutation in ten collapsed it to the
#: small regime.
TRAIN_SEED = 1
#: --tiny divides every record count by this (self-check only)
TINY_DIV = 100
#: fewest untraced fits a run measures, however short --seconds is
MIN_FITS = 2
#: predict_matrix calls timed after every fit (after one untimed call),
#: so the samples spread over the whole run
PREDICT_REPS = 30
COMPILE_REPS = 5
#: records whose compiled prediction is checked against the recursive
#: reference walk
PREDICT_CHECK = 5000
#: PSS sampling period of the memory sampler, seconds
PSS_PERIOD = 0.05

WORKLOADS = {
    "quest-f2-batch": {
        "n": 800_000, "function": "F2", "backend": "process",
        "stream": False, "config": {},
    },
    "quest-f7-subsets": {
        "n": 50_000, "function": "F7", "backend": "thread",
        "stream": False, "config": {"categorical_binary_subsets": True},
    },
    "quest-f2-stream": {
        "n": 200_000, "function": "F2", "backend": "process",
        "stream": True, "config": {"stream_chunk_records": 20_000},
    },
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="divide record counts by 100 (self-check)")
    ap.add_argument("--tamper-reference", action="store_true",
                    help="corrupt the reference digest (self-check)")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def scaled(workload: dict, tiny: bool) -> dict:
    w = dict(workload, config=dict(workload["config"]), test=TEST_RECORDS)
    if tiny:
        w["n"] //= TINY_DIV
        w["test"] //= TINY_DIV
        if "stream_chunk_records" in w["config"]:
            w["config"]["stream_chunk_records"] //= TINY_DIV
    return w


def setup(w: dict, seed: int):
    """Import ``repro``, draw the training records (batch: in ``seed``'s
    order) and the held-out records with ``seed + 1``; the seconds this
    takes are one ``setup_s`` sample."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np
    from repro import paper_dataset
    train = paper_dataset(w["n"], w["function"], seed=TRAIN_SEED)
    if not w["stream"]:
        train = train.take(np.random.default_rng(seed).permutation(w["n"]))
    test = paper_dataset(w["test"], w["function"], seed=seed + 1)
    return train, test, time.perf_counter() - t0


# ----------------------------------------------------------------------
# memory: summed PSS of this process and its descendants
# ----------------------------------------------------------------------


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out += [int(c) for c in fh.read().split()]
        except FileNotFoundError:
            pass
    return out


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass
    return 0


def pss_total_mb(root: int, skip: int) -> float:
    """Summed PSS of ``root`` and its descendants, except ``skip``."""
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        if pid != skip:
            total += _pss_kb(pid)
            todo += _children(pid)
    return total * 1024 / 1e6


def watch_pss(root: int) -> int:
    """Sampler process: every ``PSS_PERIOD`` seconds sample the summed
    PSS of ``root``'s process tree; each line read from stdin is answered
    with the peak since the previous line.  Exits at end of input."""
    me = os.getpid()
    peak = 0.0
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], PSS_PERIOD)
        now = pss_total_mb(root, me)
        peak = max(peak, now)
        if ready:
            if not sys.stdin.readline():
                return 0
            print(peak, flush=True)
            peak = now


class PssWatch:
    """Peak-PSS sampling from a separate process, so that sampling never
    takes the interpreter lock from thread-backend ranks."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--pss-watch",
             str(os.getpid())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def peak(self) -> float:
        """Peak summed PSS (MB) since the previous call."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def trim_heap() -> None:
    """Hand the benchmark's own freed heap back to the OS (glibc), so
    every fit's memory peak starts from the same baseline."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------


def provenance(args, w: dict) -> dict:
    import numpy as np
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return {
        "git_commit": commit, "src_digest": h.hexdigest(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "workload": args.workload, "backend": w["backend"], "p": P,
        "n_train": w["n"], "n_test": w["test"], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
    }


# ----------------------------------------------------------------------
# the measured run
# ----------------------------------------------------------------------


class Bench:
    def __init__(self, args, w: dict, train, test):
        from repro import InductionConfig
        self.args, self.w, self.train, self.test = args, w, train, test
        self.config = InductionConfig(**w["config"])
        self.attempted = 0
        self.failed = 0
        self.reference: str | None = None
        self._ckpt_seq = 0
        self.matrix = test.features_matrix()
        self.predict_s: list[float] = []
        self.pss = PssWatch()

    # -- correctness ---------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"hostbench: FAILED {what}", file=sys.stderr)

    def check_digest(self, tree, what: str):
        """Check ``tree`` against the reference; returns it compiled."""
        from repro import compile_tree
        compiled = compile_tree(tree)
        digest = compiled.structure_digest
        if self.reference is None:     # streaming: first fit sets it
            self.reference = digest
            if self.args.tamper_reference:
                self.reference = "0" * 32
        self.check(digest == self.reference,
                   f"{what}: tree digest {digest} != {self.reference}")
        return compiled

    def make_reference(self) -> None:
        """Serial tree digest (batch) — outside every timed region."""
        if self.w["stream"]:
            return
        from repro import compile_tree, induce_serial
        self.reference = compile_tree(
            induce_serial(self.train, self.config)).structure_digest
        if self.args.tamper_reference:
            self.reference = "0" * 32

    # -- fits ----------------------------------------------------------

    def _fresh_ckpt(self):
        from repro.runtime import CheckpointConfig
        if not self.w["stream"]:
            return None
        self._ckpt_seq += 1
        path = OUT / "ckpt" / f"{os.getpid()}-{self._ckpt_seq}"
        shutil.rmtree(path, ignore_errors=True)
        return CheckpointConfig(dir=str(path))

    @staticmethod
    def _drop_ckpt(ckpt) -> float:
        if ckpt is None:
            return 0.0
        size = sum(p.stat().st_size for p in Path(ckpt.dir).rglob("*")
                   if p.is_file())
        shutil.rmtree(ckpt.dir, ignore_errors=True)
        return size / 1e6

    def fit(self, dataset):
        """One untraced fit through the public API; ``(result, wall_s,
        peak_mem_mb)``."""
        from repro import ScalParC
        clf = ScalParC(P, config=self.config, backend=self.w["backend"])
        ckpt = self._fresh_ckpt()
        gc.collect()
        trim_heap()
        self.pss.peak()
        t0 = time.perf_counter()
        if self.w["stream"]:
            result = clf.fit_stream(dataset, checkpoint=ckpt)
        else:
            result = clf.fit(dataset)
        wall = time.perf_counter() - t0
        peak = self.pss.peak()
        self._drop_ckpt(ckpt)
        return result, wall, peak

    def traced_fit(self):
        """One traced fit: benchmark-owned workers under ``run_spmd`` with
        the layer patches and a ``TraceCollector``."""
        import probes
        from repro import CRAY_T3D, run_spmd
        from repro.perfmodel import PerfRun
        from repro.runtime import TraceCollector

        perf = PerfRun(P, CRAY_T3D)
        collector = TraceCollector()
        ckpt = self._fresh_ckpt()
        worker = (probes.traced_stream_worker if self.w["stream"]
                  else probes.traced_batch_worker)
        gc.collect()
        patches = probes.Patches().install()
        try:
            t0 = time.perf_counter()
            results = run_spmd(P, worker, args=(self.train, self.config),
                               observer=perf, rank_perf=perf.trackers,
                               backend=self.w["backend"], trace=collector,
                               checkpoint=ckpt)
            t1 = time.perf_counter()
        finally:
            patches.restore()
        return {"tree": results[0][0], "recs": [r for _t, r in results],
                "collector": collector, "stats": perf.stats(),
                "t0": t0, "t1": t1, "ckpt_mb": self._drop_ckpt(ckpt)}

    def warm_up(self) -> None:
        """A small untimed fit, so lazy imports and first-use costs of the
        engine are paid before the clock starts."""
        from repro import paper_dataset
        small = paper_dataset(max(self.w["n"] // TINY_DIV, 500),
                              self.w["function"], seed=self.args.seed + 2)
        self.fit(small)

    # -- prediction ----------------------------------------------------

    def time_predict(self, compiled) -> None:
        # the fit has evicted the caches: the first call is not timed
        compiled.predict_matrix(self.matrix)
        for _ in range(PREDICT_REPS):
            t0 = time.perf_counter()
            compiled.predict_matrix(self.matrix)
            self.predict_s.append(time.perf_counter() - t0)

    def predict(self, tree) -> dict:
        """Compile time, accuracy and throughput of ``tree``, and the
        check of its compiled predictions."""
        from repro import compile_tree
        from repro.tree.predict import predict_columns_recursive
        compile_s = []
        for _ in range(COMPILE_REPS):
            t0 = time.perf_counter()
            compiled = compile_tree(tree)
            compile_s.append(time.perf_counter() - t0)
        labels = compiled.predict_matrix(self.matrix)
        k = min(PREDICT_CHECK, self.test.n_records)
        ref = predict_columns_recursive(tree, [c[:k] for c in
                                               self.test.columns])
        self.check(bool((labels[:k] == ref).all()),
                   "compiled predictions differ from the recursive walk")
        return {
            "compiled": compiled,
            "compile_s": statistics.median(compile_s),
            "accuracy": float((labels == self.test.labels).mean()),
            # all calls' records over all calls' time: the samples are
            # bimodal when the host's speed shifts mid-run, and a median
            # would jump between the modes
            "records_per_s": self.test.n_records * len(self.predict_s)
            / sum(self.predict_s),
        }


def layer_metrics(traced: dict, compiled, compile_s: float) -> dict:
    """Per-layer metrics of one traced fit, each the max over ranks
    unless noted."""
    import probes
    recs, collector, stats = traced["recs"], traced["collector"], \
        traced["stats"]
    summ = [probes.rank_summary(r, collector.events_of(r.rank)) for r in recs]

    def mx(*keys):
        return max(sum(s.get(k, 0.0) for k in keys) for s in summ)

    return {
        "presort.busy_s": mx("presort.busy_s"),
        "presort.wait_s": mx("presort.wait_s"),
        "presort.mb": mx("presort.mb"),
        "findsplit.busy_s": mx("findsplit.busy_s"),
        "findsplit.wait_s": mx("findsplit.wait_s"),
        "findsplit.collectives": mx("findsplit.collectives"),
        "findsplit.mb": mx("findsplit.mb"),
        "criteria.subset_calls": mx("best_binary_subset.calls"),
        "criteria.subset_busy_s": mx("best_binary_subset.s"),
        "performsplit.busy_s": mx("performsplit.busy_s"),
        "performsplit.wait_s": mx("performsplit.wait_s"),
        "performsplit.mb": mx("performsplit.mb"),
        "induction.levels": compiled.max_depth + 1,
        "induction.nodes": compiled.n_nodes,
        "runtime.spawn_s": max(r.enter for r in recs) - traced["t0"],
        "runtime.teardown_s": traced["t1"] - max(r.exit for r in recs),
        "runtime.collectives": mx("runtime.collectives"),
        "runtime.wait_s": mx("runtime.wait_s"),
        # sums over ranks, as FitResult.stats reports them
        "runtime.pickled_mb": stats.transport_pickled_bytes / 1e6,
        "runtime.shared_mb": stats.transport_shared_bytes / 1e6,
        "stream.epochs": mx("stream.ingest.spans"),
        "stream.ingest_busy_s": mx("stream.ingest.busy_s"),
        "stream.sketch_busy_s": mx("stream.sketch.busy_s"),
        "stream.grow_busy_s": mx("stream.grow.busy_s"),
        "stream.sketch_wait_s": mx("stream.sketch.wait_s"),
        "stream.sketch_mb": mx("stream.sketch.mb"),
        "checkpoint.cuts": mx("LevelCheckpointer.save.calls"),
        "checkpoint.save_s": mx("LevelCheckpointer.save.s",
                                "LevelCheckpointer.finalize.s"),
        "checkpoint.mb": traced["ckpt_mb"],
        "predict.compile_s": compile_s,
        "predict.nodes": compiled.n_nodes,
        "predict.depth": compiled.max_depth,
        "perfmodel.modeled_fit_s": stats.parallel_time,
        # summed over ranks, the counterpart of the summed PSS
        "perfmodel.modeled_peak_mb": sum(stats.memory_per_rank) / 1e6,
    }


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def setup_sample(args) -> float:
    """One ``setup_s`` sample from a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"hostbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]            # the workload fixes every knob
    w = scaled(WORKLOADS[args.workload], args.tiny)
    train, test, setup_first = setup(w, args.seed)
    if args.setup_probe:
        print(setup_first)
        return 0
    sys.path.insert(0, str(BENCH_DIR))
    units = load_units()
    setup_s = [setup_first]
    prov = provenance(args, w)
    print(json.dumps({"provenance": prov}))

    bench = Bench(args, w, train, test)
    try:
        values = measure(args, w, bench, prov, setup_s)
    finally:
        bench.pss.close()
        stop_resource_tracker()
    metrics = {k: {"value": float(v), "unit": units[k]}
               for k, v in values.items()}
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if bench.failed == 0 else 1


def measure(args, w: dict, bench: Bench, prov: dict,
            setup_s: list[float]) -> dict:
    """Reference, warm-up, the timed loop and prediction; returns the
    metric values ``--trace`` selects."""
    bench.make_reference()
    bench.warm_up()
    walls, peaks, traced_walls, traced = [], [], [], []
    start = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        result, wall, peak = bench.fit(bench.train)
        bench.time_predict(bench.check_digest(result.tree, "fit"))
        walls.append(wall)
        peaks.append(peak)
        print(f"hostbench: fit {len(walls)}: {wall:.3f} s, "
              f"peak {peak:.1f} MB", file=sys.stderr)
        last = result.tree
        if args.trace:
            run = bench.traced_fit()
            bench.check_digest(run["tree"], "traced fit")
            traced_walls.append(run["t1"] - run["t0"])
            traced.append(run)
        else:   # spread over the run, like the predict samples
            setup_s.append(setup_sample(args))
        cycle = time.perf_counter() - t_cycle
        if len(walls) >= MIN_FITS and \
                time.perf_counter() - start + cycle > args.seconds:
            break

    pred = bench.predict(last)
    if args.trace:
        per_fit = [layer_metrics(run, pred["compiled"], pred["compile_s"])
                   for run in traced]
        values = {k: statistics.median(m[k] for m in per_fit)
                  for k in per_fit[0]}
        values["trace.overhead_frac"] = (statistics.median(traced_walls)
                                         / statistics.median(walls) - 1.0)
        write_trace_files(args, prov, traced[-1])
    else:
        values = {
            "train_records_per_s": statistics.median(w["n"] / t
                                                     for t in walls),
            "peak_mem_mb": statistics.median(peaks),
            "setup_s": statistics.median(setup_s),
            "test_accuracy": pred["accuracy"],
            "predict_records_per_s": pred["records_per_s"],
        }
    return values


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker the process
    backend starts, so no process of this run outlives it."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def write_trace_files(args, prov: dict, run: dict) -> None:
    """Flat per-(rank, level, phase) spans and a Chrome trace of the last
    traced fit, under ``.hostbench/<workload>-seed<seed>/``."""
    import probes
    out = OUT / f"{args.workload}-seed{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    recs = run["recs"]
    probes.write_json(out / "spans.json", {
        "provenance": prov,
        "fit_wall_s": run["t1"] - run["t0"],
        "ranks": [{"rank": r.rank, "wall_s": r.exit - r.enter,
                   "coverage": probes.coverage(r)}
                  for r in recs],
        "rows": probes.flat_rows(recs, run["collector"]),
    })
    host = [("run_spmd", run["t0"], run["t1"]),
              ("spawn", run["t0"], max(r.enter for r in recs)),
              ("teardown", max(r.exit for r in recs), run["t1"])]
    probes.write_json(out / "chrome_trace.json",
                      probes.chrome_trace(recs, host, run["t0"]))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--pss-watch"]:
        sys.exit(watch_pss(int(sys.argv[2])))
    sys.exit(main())
