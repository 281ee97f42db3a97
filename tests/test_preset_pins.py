"""Cross-commit pin of every preset and every sweep row, without running
a simulation: each model-1 preset's field values, and for each sweep
preset at seed 1 its rows in order, each a point label and the field
values of its Scenario (flow overrides included).

`tests/test_digests.py` runs one CHOKeD point per sweep; this file covers
every other row. A change that moves a pin changes what a preset means:
it must say why before re-pinning with

    PYTHONPATH=src python tests/test_preset_pins.py --write
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import fields
from enum import Enum

import pytest

from aqmsim.scenario import PRESETS, SWEEP_PRESETS, Scenario, load_preset, sweep_scenarios

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "preset_pins.json")


def _plain(value):
    """The JSON form of a Scenario field value."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in sorted(value.items())}
    return value


def scenario_fields(scenario: Scenario) -> dict:
    return {f.name: _plain(getattr(scenario, f.name)) for f in fields(Scenario)}


def current_pins() -> dict:
    return {
        "presets": {name: scenario_fields(load_preset(name)) for name in sorted(PRESETS)},
        "sweeps": {
            preset: [[label, scenario_fields(scenario)] for label, scenario in sweep_scenarios(preset, seed=1)]
            for preset in SWEEP_PRESETS
        },
    }


def _pinned() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def test_pins_cover_every_preset():
    pinned = _pinned()
    assert sorted(pinned["presets"]) == sorted(PRESETS)
    assert sorted(pinned["sweeps"]) == sorted(SWEEP_PRESETS)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_fields_unchanged(name):
    assert scenario_fields(load_preset(name)) == _pinned()["presets"][name]


@pytest.mark.parametrize("preset", SWEEP_PRESETS)
def test_sweep_rows_unchanged(preset):
    rows = [[label, scenario_fields(s)] for label, s in sweep_scenarios(preset, seed=1)]
    assert rows == _pinned()["sweeps"][preset]


def write_pins() -> None:
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(current_pins(), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_preset_pins.py --write")
    write_pins()
