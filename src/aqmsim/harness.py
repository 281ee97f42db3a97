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
from .metrics import FlowStats, MetricsCollector, QueueTracePoint
from .scenario import Scenario, sweep_scenarios
from .topology import build_dumbbell

CSV_SCHEMA_VERSION = 1


@dataclass
class RunReport:
    """One run's results: `flows` holds one FlowStats record per flow in
    flow-id order, and a flow's rates are metrics.throughput/goodput of its
    record over `window`, the measurement window (warmup, duration)."""

    discipline: str
    seed: int
    window: tuple[float, float]
    fair_share_bps: float
    flows: list[FlowStats]
    tcp_throughput_bps: float
    tcp_goodput_bps: float
    udp_throughput_bps: float
    fairness: float
    mean_queuing_delay_s: float
    queue_trace: list[QueueTracePoint]
    outcome_counts: dict[str, int]
    draws_histogram: dict[int, int]
    draw_bound_violations: int

    @property
    def warmup_s(self) -> float:
        return self.window[0]

    @property
    def conservation(self) -> dict[int, dict[str, int]]:
        """Per flow: packets emitted, delivered, dropped and still in the network."""
        return {
            f.flow_id: {"emitted": f.emitted, "delivered": f.delivered, "dropped": f.dropped, "residual": f.residual}
            for f in self.flows
        }

    def throughputs_bps(self) -> list[float]:
        return [metrics_mod.throughput(flow, self.window) for flow in self.flows]

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

    loop.run_until(scenario.duration_s)

    window = (scenario.warmup_s, scenario.duration_s)
    residual = dumbbell.residual_packets()
    flows: list[FlowStats] = []
    shares: list[float] = []
    tcp_throughput = tcp_goodput = udp_throughput = 0.0
    for flow_id, stats in sorted(collector.flow_stats.items()):
        stats.residual = residual[flow_id]
        rate = metrics_mod.throughput(stats, window)
        if stats.kind == "tcp":
            tcp_throughput += rate
            tcp_goodput += metrics_mod.goodput(stats, window)
        else:
            udp_throughput += rate
        flows.append(stats)
        shares.append(rate)

    fairness = metrics_mod.jain_index(shares) if any(shares) else 0.0
    delay = collector.mean_queuing_delay() if collector.delay_count else 0.0

    return RunReport(
        discipline=scenario.discipline.value,
        seed=scenario.seed,
        window=window,
        fair_share_bps=scenario.fair_share_bps(),
        flows=flows,
        tcp_throughput_bps=tcp_throughput,
        tcp_goodput_bps=tcp_goodput,
        udp_throughput_bps=udp_throughput,
        fairness=fairness,
        mean_queuing_delay_s=delay,
        queue_trace=collector.queue_trace,
        outcome_counts=collector.outcome_counts,
        draws_histogram=collector.draws_histogram,
        draw_bound_violations=collector.draw_bound_violations,
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
        workers = os.cpu_count() or 1
    # A process pool forks all its workers at once; more than runs would idle.
    workers = min(workers, len(scenarios))
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
            f"{metrics_mod.throughput(flow, report.window) / 1e6:.6f}",
            f"{metrics_mod.goodput(flow, report.window) / 1e6:.6f}",
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
        [t_bin, flow.flow_id, f"{bits / 1e6:.6f}"]
        for flow in report.flows
        for t_bin, bits in sorted(flow.bins.items())
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
