"""Cross-commit behaviour pin: SHA-256 of every CSV a pinned run emits.

The five model-1 presets run at full length; each sweep preset
contributes one CHOKeD point shortened to 20 s, and the whole model-2
sweep at 5 s pins a many-row sweep.csv. All runs use seed 1. A
change that moves a digest changes simulated behaviour: it must say why
and re-run the acceptance gate before re-pinning with

    PYTHONPATH=src python tests/test_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import pytest

from aqmsim.harness import emit_outputs, emit_sweep_csv, run_experiment, run_sweep
from aqmsim.qdisc import Discipline
from aqmsim.scenario import PRESETS, load_preset, sweep_scenarios

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")

SWEEP_DURATION_S = 20.0

# sweep preset -> the point label pinned (its CHOKeD run)
SWEEP_POINTS = {
    "model2-sweep": "100-flows",
    "buffer-sweep": "B500",
    "rtt-mix": "rtt-mix",
    "reno-vs-vegas": "reno-vs-vegas",
    "web-mix": "web-mix",
}

# Every point of one sweep under every discipline: sweep.csv's 16 rows.
FULL_SWEEP = "model2-sweep"
FULL_SWEEP_RUN = "model2-sweep-full"
FULL_SWEEP_DURATION_S = 5.0

RUNS = sorted(PRESETS) + sorted(SWEEP_POINTS) + [FULL_SWEEP_RUN]


def _sweep_point(preset: str):
    for label, scenario in sweep_scenarios(preset, seed=1, duration=SWEEP_DURATION_S):
        if label == SWEEP_POINTS[preset] and scenario.discipline is Discipline.CHOKED:
            return label, scenario
    raise LookupError(f"{preset} has no CHOKeD {SWEEP_POINTS[preset]} point")


def run_digests(run: str, out_dir: str) -> dict[str, str]:
    """{csv file name: SHA-256 hex} for one pinned run, emitted into out_dir."""
    if run in PRESETS:
        paths = emit_outputs(run_experiment(load_preset(run)), out_dir)
    elif run == FULL_SWEEP_RUN:
        rows = run_sweep(FULL_SWEEP, seed=1, duration=FULL_SWEEP_DURATION_S, workers=1)
        paths = [emit_sweep_csv(rows, out_dir)]
    else:
        label, scenario = _sweep_point(run)
        report = run_experiment(scenario)
        paths = emit_outputs(report, out_dir) + [emit_sweep_csv([(label, report)], out_dir)]
    digests = {}
    for path in paths:
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _golden() -> dict[str, dict[str, str]]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_covers_every_run():
    assert sorted(_golden()) == sorted(RUNS)


@pytest.mark.parametrize("run", RUNS)
def test_csv_digests_unchanged(run, tmp_path):
    assert run_digests(run, str(tmp_path)) == _golden()[run]


def write_golden() -> None:
    golden = {}
    for run in RUNS:
        with tempfile.TemporaryDirectory() as out_dir:
            golden[run] = run_digests(run, out_dir)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_digests.py --write")
    write_golden()
