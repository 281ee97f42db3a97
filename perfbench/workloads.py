"""Benchmark workloads: each maps (seed, simulated duration) to the
scenarios that one repetition runs, built through aqmsim's public API.

This module imports nothing but aqmsim, so the set-up probe can import it
in a fresh interpreter without adding the benchmark's own start-up cost.
"""

from __future__ import annotations

from dataclasses import replace

from aqmsim import scenario as scenario_mod
from aqmsim.qdisc import Discipline

BASELINE_PRESETS = ("model1-droptail", "model1-red", "model1-choke", "model1-gchoke")


def _model1(presets):
    def make(seed, sim_duration=None):
        out = []
        for name in presets:
            sc = replace(scenario_mod.load_preset(name), seed=seed)
            if sim_duration is not None:
                sc = replace(sc, duration_s=sim_duration, warmup_s=min(sc.warmup_s, sim_duration / 5.0))
                sc.validate()
            out.append(sc)
        return out

    return make


def _model2_100_red(seed, sim_duration=None):
    for label, sc in scenario_mod.sweep_scenarios("model2-sweep", seed=seed, duration=sim_duration):
        if label == "100-flows" and sc.discipline is Discipline.RED:
            return [sc]
    raise LookupError("model2-sweep has no 100-flows RED point")


# name -> (scenario factory, why it is in the benchmark)
WORKLOADS = {
    "model1-choked": (
        _model1(("model1-choked",)),
        "the paper's discipline on its headline scenario: qdisc draws, live TCP "
        "and the observer's draw-bound recompute do most of the work",
    ),
    "model1-baselines": (
        _model1(BASELINE_PRESETS),
        "same traffic under DropTail, RED, CHOKe and gCHOKe: no draw, one draw and "
        "an O(Q) candidate pool, so a CHOKeD-only change leaves it flat",
    ),
    "model2-100-red": (
        _model2_100_red,
        "88 Reno + 12 CBR flows under RED: per-event engine, topology, CBR and "
        "observer cost dominate, and qdisc draws and RTOs are bypassed",
    ),
}


def scenarios(workload: str, seed: int, sim_duration: float | None = None) -> list:
    """The scenarios of one repetition of `workload`, seeded with `seed`."""
    make, _why = WORKLOADS[workload]
    return make(seed, sim_duration)
