"""Command-line entry point.

    aqmsim run --scenario <file-or-preset> [--seed N] [--out DIR]
    aqmsim sweep --preset <name> [--seed N] [--out DIR] [--workers N]
    aqmsim validate --scenario <file-or-preset>
    aqmsim list-presets

Exit code 0 on success; nonzero with a message on any validation or
runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .harness import emit_outputs, emit_sweep_csv, run_experiment, run_sweep
from .scenario import PRESETS, SWEEP_PRESETS, ScenarioError, load_preset, parse_scenario_file


def _load(scenario_arg: str):
    if os.path.exists(scenario_arg):
        return parse_scenario_file(scenario_arg)
    if scenario_arg in PRESETS:
        return load_preset(scenario_arg)
    raise ScenarioError(
        f"{scenario_arg!r} is neither a scenario file nor a preset "
        f"(presets: {', '.join(sorted(PRESETS))})"
    )


def _cmd_run(args) -> int:
    scenario = _load(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    report = run_experiment(scenario)
    print(
        f"{scenario.name}: fairness={report.fairness:.4f} "
        f"tcp_goodput={report.tcp_goodput_bps / 1e6:.6f} Mb/s "
        f"udp_throughput={report.udp_throughput_bps / 1e6:.6f} Mb/s "
        f"queuing_delay={report.mean_queuing_delay_s:.6f} s"
    )
    if args.out:
        for path in emit_outputs(report, args.out):
            print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    rows = run_sweep(args.preset, seed=args.seed, workers=args.workers)
    for label, report in rows:
        print(
            f"{label} {report.discipline}: fairness={report.fairness:.4f} "
            f"tcp_throughput={report.tcp_throughput_bps / 1e6:.6f} Mb/s "
            f"queuing_delay={report.mean_queuing_delay_s:.6f} s"
        )
    if args.out:
        print(f"wrote {emit_sweep_csv(rows, args.out)}")
    return 0


def _cmd_validate(args) -> int:
    scenario = _load(args.scenario)
    print(
        f"{scenario.name}: ok "
        f"({scenario.discipline.value}, {scenario.n_tcp} TCP + {scenario.n_udp} UDP, "
        f"B={scenario.buffer_pkts}, {scenario.duration_s:g} s, seed {scenario.seed})"
    )
    return 0


def _cmd_list_presets(_args) -> int:
    for name in sorted(PRESETS):
        print(name)
    for name in SWEEP_PRESETS:
        print(f"{name} (sweep)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="aqmsim", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--scenario", required=True, help="scenario file path or preset name")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None, help="directory for CSV output")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a preset sweep")
    p_sweep.add_argument("--preset", required=True, choices=sorted(SWEEP_PRESETS))
    p_sweep.add_argument("--seed", type=int, default=1)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="parse and validate a scenario")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_list = sub.add_parser("list-presets", help="list runnable presets")
    p_list.set_defaults(func=_cmd_list_presets)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
