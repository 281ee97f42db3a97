"""Experiment runner: builds a scenario's topology, runs it, and reports.

A run is deterministic given (scenario, seed): re-running produces byte
identical CSV output. Sweeps run one simulation per (point, discipline)
and may execute points in parallel, since runs share no mutable state.
"""

from __future__ import annotations

import csv
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import metrics as metrics_mod
from .engine import EventLoop, Rng
from .metrics import MetricsCollector, QueueTracePoint
from .scenario import Scenario, sweep_scenarios
from .topology import build_dumbbell

CSV_SCHEMA_VERSION = 1


@dataclass
class FlowReport:
    flow_id: int
    kind: str  # "tcp" | "udp"
    throughput_bps: float
    goodput_bps: float


@dataclass
class RunReport:
    discipline: str
    seed: int
    warmup_s: float
    fair_share_bps: float
    flows: list[FlowReport]
    tcp_throughput_bps: float
    tcp_goodput_bps: float
    udp_throughput_bps: float
    fairness: float
    mean_queuing_delay_s: float
    queue_trace: list[QueueTracePoint]
    outcome_counts: dict[str, int]
    draws_histogram: dict[int, int]
    draw_bound_violations: int
    conservation: dict[int, dict[str, int]]
    bins: dict[int, dict[int, int]]

    def throughputs_bps(self) -> list[float]:
        return [flow.throughput_bps for flow in self.flows]

    def throughput_sdv_kbps(self) -> float:
        """Sample standard deviation of per-flow throughputs, in kb/s."""
        shares = self.throughputs_bps()
        if len(shares) < 2:
            return 0.0
        return statistics.stdev(shares) / 1e3


def run_experiment(scenario: Scenario) -> RunReport:
    scenario.validate()
    loop = EventLoop()
    rng = Rng(scenario.seed)
    collector = MetricsCollector(
        warmup=scenario.warmup_s,
        duration=scenario.duration_s,
        discipline=scenario.discipline,
        params=scenario.qdisc_params(),
    )
    dumbbell = build_dumbbell(scenario, loop, rng, collector)
    for flow_id in dumbbell.sources:
        collector.register_flow(flow_id)

    n_samples = int(scenario.duration_s / scenario.sample_period_s) + 1
    dumbbell.start_queue_sampler(scenario.sample_period_s, n_samples)

    loop.run_until(scenario.duration_s)

    window = (scenario.warmup_s, scenario.duration_s)
    flows: list[FlowReport] = []
    tcp_throughput = tcp_goodput = udp_throughput = 0.0
    for flow_id in sorted(dumbbell.sources):
        kind = dumbbell.flow_kinds[flow_id]
        stats = collector.flow_stats[flow_id]
        rate = metrics_mod.throughput(stats, window)
        if kind == "tcp":
            good = metrics_mod.goodput_tcp(stats, window)
            tcp_throughput += rate
            tcp_goodput += good
        else:
            good = rate  # UDP never retransmits
            udp_throughput += rate
        flows.append(FlowReport(flow_id, kind, rate, good))

    shares = [flow.throughput_bps for flow in flows]
    fairness = metrics_mod.jain_index(shares) if any(shares) else 0.0
    delay = collector.mean_queuing_delay() if collector.delay_count else 0.0

    residual = dumbbell.residual_packets()
    conservation = {
        flow_id: {
            "emitted": collector.emitted[flow_id],
            "delivered": collector.delivered[flow_id],
            "dropped": collector.dropped[flow_id],
            "residual": residual[flow_id],
        }
        for flow_id in sorted(dumbbell.sources)
    }

    return RunReport(
        discipline=scenario.discipline.value,
        seed=scenario.seed,
        warmup_s=scenario.warmup_s,
        fair_share_bps=scenario.fair_share_bps(),
        flows=flows,
        tcp_throughput_bps=tcp_throughput,
        tcp_goodput_bps=tcp_goodput,
        udp_throughput_bps=udp_throughput,
        fairness=fairness,
        mean_queuing_delay_s=delay,
        queue_trace=collector.queue_trace,
        outcome_counts={k.value: v for k, v in sorted(collector.outcome_counts.items(), key=lambda kv: kv[0].value)},
        draws_histogram=dict(sorted(collector.draws_histogram.items())),
        draw_bound_violations=collector.draw_bound_violations,
        conservation=conservation,
        bins={fid: dict(sorted(bins.items())) for fid, bins in collector.bins.items()},
    )


def run_sweep(
    preset: str,
    seed: int = 1,
    duration: float | None = None,
    workers: int | None = None,
) -> list[tuple[str, RunReport]]:
    """One RunReport per (point, discipline) of a sweep preset."""
    pairs = sweep_scenarios(preset, seed=seed, duration=duration)
    scenarios = [scenario for _, scenario in pairs]
    if workers is None:
        workers = min(os.cpu_count() or 1, len(scenarios))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run_experiment, scenarios))
    else:
        reports = [run_experiment(s) for s in scenarios]
    return [(label, report) for (label, _), report in zip(pairs, reports)]


# -- CSV emission ----------------------------------------------------------


def _write_csv(out_dir: str, schema: str, header: list[str], rows) -> str:
    """Write out_dir/<schema>.csv (schema comment line, header, rows); return its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{schema}.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# schema: {schema} v{CSV_SCHEMA_VERSION}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def emit_outputs(report: RunReport, out_dir: str) -> list[str]:
    """Write summary.csv, aggregate.csv, queue_trace.csv and timeseries.csv."""
    summary = (
        [
            flow.flow_id,
            flow.kind,
            f"{flow.throughput_bps / 1e6:.6f}",
            f"{flow.goodput_bps / 1e6:.6f}",
            f"{report.fair_share_bps / 1e6:.6f}",
        ]
        for flow in report.flows
    )
    aggregate = [
        [
            report.discipline,
            f"{report.tcp_goodput_bps / 1e6:.6f}",
            f"{report.udp_throughput_bps / 1e6:.6f}",
            f"{report.fairness:.6f}",
            f"{report.mean_queuing_delay_s:.6f}",
        ]
    ]
    queue_trace = ([f"{point.t:.3f}", point.q_c, f"{point.q_a:.6f}"] for point in report.queue_trace)
    timeseries = (
        [t_bin, flow_id, f"{bits / 1e6:.6f}"]
        for flow_id in sorted(report.bins)
        for t_bin, bits in report.bins[flow_id].items()
    )
    return [
        _write_csv(out_dir, "summary", ["flow_id", "kind", "throughput_mbps", "goodput_mbps", "fair_share_mbps"], summary),
        _write_csv(
            out_dir, "aggregate",
            ["discipline", "tcp_goodput_mbps", "udp_throughput_mbps", "fairness", "queuing_delay_s"], aggregate,
        ),
        _write_csv(out_dir, "queue_trace", ["t", "q_c", "q_a"], queue_trace),
        _write_csv(out_dir, "timeseries", ["t_bin", "flow_id", "throughput_mbps"], timeseries),
    ]


def emit_sweep_csv(rows: list[tuple[str, RunReport]], out_dir: str) -> str:
    header = [
        "point",
        "discipline",
        "n_flows",
        "seed",
        "tcp_throughput_mbps",
        "tcp_goodput_mbps",
        "udp_throughput_mbps",
        "fairness",
        "queuing_delay_s",
        "sdv_kbps",
    ]
    sweep = (
        [
            label,
            report.discipline,
            len(report.flows),
            report.seed,
            f"{report.tcp_throughput_bps / 1e6:.6f}",
            f"{report.tcp_goodput_bps / 1e6:.6f}",
            f"{report.udp_throughput_bps / 1e6:.6f}",
            f"{report.fairness:.6f}",
            f"{report.mean_queuing_delay_s:.6f}",
            f"{report.throughput_sdv_kbps():.6f}",
        ]
        for label, report in rows
    )
    return _write_csv(out_dir, "sweep", header, sweep)
