"""aqmsim benchmark: host time per simulated run, with a traced layer split.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json

Runs one workload through aqmsim's public API in this process, one
simulation at a time, for about S host seconds, checks every run, prints
each metric by name with its unit, and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones (see NOTES.md). The full
result, with the environment and the simulated-statistics fingerprint, is
also written to .perfbench_out/<workload>-seed<N>-trace<T>.json, and
--compare lists every simulated statistic that differs between two such
files. --workload all runs each workload in its own process.

Host time is what the simulator takes; simulated time is what the modelled
network takes. Every timing here is host time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# Fresh interpreters timed for setup_s; the first one also fills the
# bytecode cache and is not counted.
SETUP_PROBES = 15

END_TO_END = {  # name -> unit
    "run_s": "s",
    "pkts_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "engine.events": "count",
    "engine.events.arrival": "count",
    "engine.events.tx_complete": "count",
    "engine.events.delivery": "count",
    "engine.events.ack": "count",
    "engine.events.timer": "count",
    "engine.events.emit": "count",
    "engine.rto_useful_ratio": "ratio",
    "engine.self_s": "s",
    "engine.pending_peak": "count",
    "engine.events_per_s": "1/s",
    "topology.self_s": "s",
    "topology.build_s": "s",
    "qdisc.enqueue_s": "s",
    "qdisc.dequeue_s": "s",
    "qdisc.ns_per_enqueue": "ns",
    "qdisc.draws": "count",
    "qdisc.admit": "count",
    "qdisc.drop_arriving": "count",
    "qdisc.match_drop": "count",
    "qdisc.match_ratio": "ratio",
    "transport.tcp_s": "s",
    "transport.cbr_s": "s",
    "transport.sink_s": "s",
    "transport.retransmissions": "count",
    "transport.rto_fired": "count",
    "metrics.observer_s": "s",
    "metrics.observer_share_subst": "ratio",
    "harness.report_s": "s",
    "harness.emit_s": "s",
    "harness.csv_bytes": "bytes",
    "scenario.parse_s": "s",
    "trace_overhead": "ratio",
    "trace.wall_s": "s",
    "trace.remainder_s": "s",
}

SETUP_PROBE = """\
import sys, time
sys.path[:0] = {paths!r}
import aqmsim
from aqmsim.engine import EventLoop, Rng
from aqmsim.metrics import MetricsCollector
from aqmsim.topology import build_dumbbell
import workloads
for sc in workloads.scenarios({workload!r}, {seed!r}, {sim_duration!r}):
    observer = MetricsCollector(sc.warmup_s, sc.duration_s, sc.discipline)
    build_dumbbell(sc, EventLoop(), Rng(sc.seed), observer)
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""


class BenchError(Exception):
    """The benchmark cannot run here."""


# -- environment -------------------------------------------------------------


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


# -- one run -----------------------------------------------------------------


def csv_digests(paths: list[str]) -> dict[str, str]:
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def csv_bytes(paths: list[str]) -> int:
    return sum(os.path.getsize(p) for p in paths)


def run_problems(report, digests: dict[str, str], expected: dict[str, str] | None) -> list[str]:
    """Every correctness check a run must pass; empty when it passes."""
    problems = []
    for flow_id, c in report.conservation.items():
        if c["emitted"] != c["delivered"] + c["dropped"] + c["residual"]:
            problems.append(f"flow {flow_id} breaks emitted = delivered + dropped + residual: {c}")
    if report.draw_bound_violations:
        problems.append(f"{report.draw_bound_violations} draw-bound violations")
    if expected is not None and digests != expected:
        problems.append("CSV bytes differ from the reference run of the same seed")
    return problems


def fresh_dir() -> str:
    return tempfile.mkdtemp(dir=WORK_DIR)


def timed_run(harness, scenario) -> tuple[float, float, object, list[str]]:
    """One run as `aqmsim run --out` does it after parsing: run_experiment,
    then emit_outputs into a fresh directory. Returns the host seconds of
    the whole run and of run_experiment alone, the report and the CSVs."""
    out = fresh_dir()
    gc.collect()
    t0 = time.perf_counter()
    report = harness.run_experiment(scenario)
    t1 = time.perf_counter()
    paths = harness.emit_outputs(report, out)
    t2 = time.perf_counter()
    return t2 - t0, t1 - t0, report, paths


# -- measurement -------------------------------------------------------------


class Bench:
    def __init__(self, workload: str, seed: int, sim_duration: float | None) -> None:
        import workloads
        from aqmsim import harness

        self.harness = harness
        self.workload = workload
        self.seed = seed
        self.sim_duration = sim_duration
        self.scenarios = workloads.scenarios(workload, seed, sim_duration)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, dict] = {}

    def check(self, name: str, report, paths: list[str]) -> dict[str, str]:
        digests = csv_digests(paths)
        expected = self.reference[name]["csv_sha256"] if name in self.reference else None
        problems = run_problems(report, digests, expected)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)
        shutil.rmtree(os.path.dirname(paths[0]))
        return digests

    def reference_runs(self) -> None:
        """One untimed counting run per scenario: the fingerprint, the
        digests later runs must reproduce, and the per-layer counts."""
        import spans

        for sc in self.scenarios:
            counts = spans.Counts()
            with spans.counting(counts):
                _, _, report, paths = timed_run(self.harness, sc)
            size = csv_bytes(paths)
            digests = self.check(sc.name, report, paths)
            outcomes = dict(report.outcome_counts)
            self.reference[sc.name] = {
                "csv_sha256": digests,
                "events": dict(sorted(counts.events.items())),
                "outcomes": outcomes,
                "fairness": report.fairness,
                "_counts": counts,
                "_arrivals": sum(outcomes.values()),
                "_draws": sum(k * v for k, v in report.draws_histogram.items()),
                "_drew": sum(v for k, v in report.draws_histogram.items() if k > 0),
                "_csv_bytes": size,
            }

    def fingerprint(self) -> dict:
        return {
            name: {k: v for k, v in ref.items() if not k.startswith("_")}
            for name, ref in self.reference.items()
        }

    def arrivals(self) -> int:
        return sum(ref["_arrivals"] for ref in self.reference.values())

    def repetition(self) -> tuple[float, float]:
        """Run every scenario once, timed; (total host s, run_experiment host s)."""
        total = experiment = 0.0
        for sc in self.scenarios:
            dt, dt_exp, report, paths = timed_run(self.harness, sc)
            self.check(sc.name, report, paths)
            total += dt
            experiment += dt_exp
        return total, experiment

    def null_repetition(self) -> float:
        """run_experiment host seconds with a do-nothing observer. Its
        report is empty by design, so it is neither checked nor counted."""
        import spans

        experiment = 0.0
        with spans.null_observer():
            for sc in self.scenarios:
                _, dt_exp, _, paths = timed_run(self.harness, sc)
                shutil.rmtree(os.path.dirname(paths[0]))
                experiment += dt_exp
        return experiment

    def traced_repetition(self):
        """One repetition with spans; returns (layer metrics, recorder)."""
        import spans
        import workloads

        rec = spans.SpanRecorder()
        run_experiment = rec.wrap(self.harness.run_experiment)
        emit_outputs = rec.wrap(self.harness.emit_outputs)
        dirs = [fresh_dir() for _ in self.scenarios]
        results = []

        def run_all(scenarios):
            for sc, out in zip(scenarios, dirs):
                report = run_experiment(sc)
                results.append((sc.name, report, emit_outputs(report, out)))

        gc.collect()
        with spans.tracing(rec):
            scenarios = rec.call("scenario.load", workloads.scenarios, self.workload, self.seed, self.sim_duration)
            rec.call("bench.run", run_all, scenarios)
        for name, report, paths in results:
            self.check(name, report, paths)
        layers = spans.layer_times(rec)
        wall = sum(rec.durations("bench.run"))
        layers["trace.remainder_s"] = wall - sum(layers.values())
        layers["trace.wall_s"] = wall
        layers["scenario.parse_s"] = sum(rec.durations("scenario.load"))
        return layers, rec


def measure_setup(workload: str, seed: int, sim_duration: float | None) -> list[float]:
    """Host seconds from starting a fresh interpreter through import aqmsim,
    preset parse and validate, and build_dumbbell, once per probe."""
    code = SETUP_PROBE.format(paths=[SRC, BENCH_DIR], workload=workload, seed=seed, sim_duration=sim_duration)
    samples = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{out.stderr}")
        if i:
            samples.append(float(out.stdout.split()[-1]) - t0)
    return samples


def run_untraced(bench: Bench, seconds: float) -> dict:
    setup = measure_setup(bench.workload, bench.seed, bench.sim_duration)
    bench.reference_runs()
    reps = []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        reps.append(bench.repetition()[0])
    run_s = statistics.median(reps)
    metrics = {
        "run_s": run_s,
        "pkts_per_s": bench.arrivals() / run_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"metrics": metrics, "samples": {"run_s": reps, "setup_s": setup}}


def run_traced(bench: Bench, seconds: float, spans_path: str) -> dict:
    import spans

    bench.reference_runs()
    plain, plain_exp, null_exp, traced = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        total, experiment = bench.repetition()
        plain.append(total)
        plain_exp.append(experiment)
        null_exp.append(bench.null_repetition())
        layers, rec = bench.traced_repetition()
        traced.append(layers)
    rec.write(spans_path)

    refs = list(bench.reference.values())
    counts = [ref["_counts"] for ref in refs]
    events = Counter()
    for c in counts:
        events.update(c.events)
    outcomes = {k: sum(ref["outcomes"].get(k, 0) for ref in refs) for k in ("admit", "drop_arriving", "match_drop")}
    rto_events = sum(c.rto_events for c in counts)
    rto_fired = sum(c.rto_fired for c in counts)
    drew = sum(ref["_drew"] for ref in refs)
    n_events = sum(events.values())
    run_s = statistics.median(plain)

    metrics = {name: statistics.median(layer[name] for layer in traced) for name in traced[0]}
    metrics.update(
        {
            "engine.events": n_events,
            "engine.rto_useful_ratio": rto_fired / rto_events if rto_events else 0.0,
            "engine.pending_peak": max(c.pending_peak for c in counts),
            "engine.events_per_s": n_events / run_s,
            "qdisc.ns_per_enqueue": metrics["qdisc.enqueue_s"] / bench.arrivals() * 1e9,
            "qdisc.draws": sum(ref["_draws"] for ref in refs),
            "qdisc.admit": outcomes["admit"],
            "qdisc.drop_arriving": outcomes["drop_arriving"],
            "qdisc.match_drop": outcomes["match_drop"],
            "qdisc.match_ratio": outcomes["match_drop"] / drew if drew else 0.0,
            "transport.retransmissions": sum(c.retransmissions for c in counts),
            "transport.rto_fired": rto_fired,
            "metrics.observer_share_subst": 1.0 - statistics.median(null_exp) / statistics.median(plain_exp),
            "harness.csv_bytes": sum(ref["_csv_bytes"] for ref in refs),
            "trace_overhead": metrics["trace.wall_s"] / run_s,
        }
    )
    for kind in spans.KIND_NAMES.values():
        metrics[f"engine.events.{kind}"] = events.get(kind, 0)
    return {
        "metrics": metrics,
        "samples": {"untraced_run_s": plain, "traced": traced, "null_observer_experiment_s": null_exp},
    }


# -- output ------------------------------------------------------------------


def fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def load_program() -> None:
    """Import aqmsim from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "aqmsim", "__init__.py")):
        raise BenchError(f"no aqmsim sources under {SRC}")
    sys.path.insert(0, SRC)
    import aqmsim

    if os.path.dirname(os.path.dirname(os.path.abspath(aqmsim.__file__))) != SRC:
        raise BenchError(f"imported aqmsim from {aqmsim.__file__}, not from {SRC}")


def measure_workload(args) -> int:
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        bench = Bench(args.workload, args.seed, args.sim_duration)
        if args.trace:
            result = run_traced(bench, args.seconds, os.path.join(OUT_DIR, f"spans-{args.workload}.bin"))
            units = PER_LAYER
        else:
            result = run_untraced(bench, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    for problem in bench.problems:
        print(f"FAILED {problem}")
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {fmt(m['value'])} {m['unit']}")
    print(f"{args.workload} runs = {bench.attempted}")
    print(f"{args.workload} runs_failed = {bench.failed}")
    line = {"correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "sim_duration": args.sim_duration,
            "trace": args.trace,
            "env": env,
            "result": line,
            "fingerprint": bench.fingerprint(),
            "samples": result["samples"],
            "problems": bench.problems,
        }
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def measure_all(args) -> int:
    """Each workload in its own process, so peak RSS is that workload's."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.sim_duration is not None:
            cmd += ["--sim-duration", str(args.sim_duration)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode not in (0, 1) or not lines:
            raise BenchError(f"workload {name} exited with {out.returncode}:\n{out.stderr}")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(total))
    return 0 if total["correct"] else 1


# -- compare -----------------------------------------------------------------


def flatten(tree, prefix=""):
    if isinstance(tree, dict):
        out = {}
        for key, value in tree.items():
            out.update(flatten(value, f"{prefix}{key}."))
        return out
    return {prefix[:-1]: tree}


def compare(path_a: str, path_b: str) -> int:
    """List every simulated statistic that differs; exit 1 if any does."""
    records = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    a, b = (flatten(r["fingerprint"]) for r in records)
    changed = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for key in changed:
        print(f"changed {key}: {a.get(key, '<absent>')} -> {b.get(key, '<absent>')}")
    print(f"{len(changed)} of {len(a.keys() | b.keys())} simulated statistics changed")
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="host seconds to measure for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sim-duration", type=float, default=None,
                        help="shorten every scenario to this many simulated seconds (smoke tests)")
    parser.add_argument("--compare", nargs=2, metavar="RESULT", help="diff the fingerprints of two result files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds <= 0 or (args.sim_duration is not None and args.sim_duration <= 0):
        parser.error("--seconds and --sim-duration must be positive")
    try:
        load_program()
        import workloads

        if args.workload == "all":
            return measure_all(args)
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
        return measure_workload(args)
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
