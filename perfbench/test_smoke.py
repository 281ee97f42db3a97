"""Smoke test for the benchmark: every workload, shortened to a few
simulated seconds, prints every declared metric by name with its unit and
fails no run.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
SEED = 3
SHORT = ["--seed", str(SEED), "--seconds", "1", "--sim-duration", "5"]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module", params=[(0, "end_to_end"), (1, "per_layer")], ids=["trace0", "trace1"])
def run_all(request):
    trace, kind = request.param
    out = bench(RUN, "--workload", "all", "--trace", str(trace), *SHORT)
    assert out.returncode == 0, out.stdout + out.stderr
    return trace, kind, out.stdout.splitlines()


def test_every_metric_prints_with_its_unit(run_all):
    _trace, kind, lines = run_all
    result = json.loads(lines[-1])
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in DECLARED[kind]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for w in WORKLOADS:
        for m in DECLARED[kind]:
            prefix = f"{w} {m['name']} = "
            printed = [line for line in lines if line.startswith(prefix)]
            assert len(printed) == 1 and printed[0].endswith(f" {m['unit']}"), (prefix, printed)
        assert f"{w} runs_failed = 0" in lines


def test_no_run_fails(run_all):
    result = json.loads(run_all[2][-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3 * len(WORKLOADS)


def test_compare_lists_each_changed_statistic(run_all, tmp_path):
    trace = run_all[0]
    path = os.path.join(ROOT, ".perfbench_out", f"model1-choked-seed{SEED}-trace{trace}.json")
    assert bench(RUN, "--compare", path, path).returncode == 0
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    record["fingerprint"]["model1-choked"]["outcomes"]["admit"] += 1
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(record))
    out = bench(RUN, "--compare", path, str(changed))
    assert out.returncode == 1
    assert "changed model1-choked.outcomes.admit:" in out.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
