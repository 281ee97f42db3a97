import csv
from collections import Counter
from dataclasses import replace

import pytest

from aqmsim import harness
from aqmsim.cli import main as cli_main
from aqmsim.engine import EventKind, EventLoop
from aqmsim.harness import emit_outputs, emit_sweep_csv, run_experiment, run_sweep
from aqmsim.scenario import SWEEP_PRESETS, load_preset


def short_model1(discipline="choked", **kwargs):
    scenario = load_preset(f"model1-{discipline}")
    return replace(scenario, duration_s=15.0, warmup_s=3.0, **kwargs)


@pytest.fixture(scope="module")
def model1_report():
    return run_experiment(short_model1())


class TestRunExperiment:
    def test_every_flow_reported_once(self, model1_report):
        ids = [f.flow_id for f in model1_report.flows]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids)) == 34

    def test_deterministic_repeat(self, model1_report):
        again = run_experiment(short_model1())
        assert again == model1_report

    def test_seed_changes_output(self, model1_report):
        other = run_experiment(short_model1(seed=2))
        assert other != model1_report

    def test_throughput_sum_within_capacity(self, model1_report):
        total = sum(f.throughput_bps for f in model1_report.flows)
        assert total <= 1e6 * 1.0000001

    def test_conservation_exact_per_flow(self, model1_report):
        for flow_id, c in model1_report.conservation.items():
            assert c["emitted"] == c["delivered"] + c["dropped"] + c["residual"], flow_id

    def test_draw_bound_never_violated(self, model1_report):
        assert model1_report.draw_bound_violations == 0

    def test_queue_trace_length(self, model1_report):
        assert len(model1_report.queue_trace) == int(15.0 / 0.1) + 1

    def test_pending_events_do_not_grow_with_sample_count(self, monkeypatch):
        pending_at_start = []
        run_until = EventLoop.run_until

        def record_then_run(loop, t_end):
            pending_at_start.append(Counter(event.kind for event in loop.pending_events()))
            run_until(loop, t_end)

        monkeypatch.setattr(EventLoop, "run_until", record_then_run)
        reports = [run_experiment(short_model1(sample_period_s=p)) for p in (0.1, 0.001)]
        assert [len(r.queue_trace) for r in reports] == [151, 15001]
        # One pending emission per flow plus the single queue sampler.
        expected = {EventKind.SOURCE_EMIT: 34, EventKind.QUEUE_SAMPLE: 1}
        assert pending_at_start == [expected, expected]

    def test_queue_samples_are_their_own_event_kind(self, monkeypatch):
        dispatched = Counter()
        on = EventLoop.on

        def counting_on(loop, kind, handler):
            def counted(now, payload):
                dispatched[kind] += 1
                handler(now, payload)

            on(loop, kind, counted)

        monkeypatch.setattr(EventLoop, "on", counting_on)
        report = run_experiment(short_model1())
        n_samples = int(15.0 / 0.1) + 1
        assert dispatched[EventKind.QUEUE_SAMPLE] == len(report.queue_trace) == n_samples

    def test_outcome_counts_cover_all_arrivals(self, model1_report):
        assert set(model1_report.outcome_counts) <= {"admit", "drop_arriving", "match_drop"}
        assert sum(model1_report.outcome_counts.values()) > 0


class TestEmitOutputs:
    def read(self, path):
        with open(path, encoding="utf-8") as fh:
            comment = fh.readline()
            assert comment.startswith("# schema: ")
            return list(csv.reader(fh))

    def test_summary_schema_and_row_count(self, model1_report, tmp_path):
        emit_outputs(model1_report, str(tmp_path))
        rows = self.read(tmp_path / "summary.csv")
        assert rows[0] == ["flow_id", "kind", "throughput_mbps", "goodput_mbps", "fair_share_mbps"]
        assert len(rows) == 1 + 34
        assert rows[1][1] == "udp"
        # fixed-precision rates
        assert all(len(r[2].split(".")[1]) == 6 for r in rows[1:])

    def test_aggregate_schema(self, model1_report, tmp_path):
        emit_outputs(model1_report, str(tmp_path))
        rows = self.read(tmp_path / "aggregate.csv")
        assert rows[0] == [
            "discipline", "tcp_goodput_mbps", "udp_throughput_mbps", "fairness", "queuing_delay_s",
        ]
        assert rows[1][0] == "choked"
        assert len(rows) == 2

    def test_queue_trace_rows(self, model1_report, tmp_path):
        emit_outputs(model1_report, str(tmp_path))
        rows = self.read(tmp_path / "queue_trace.csv")
        assert rows[0] == ["t", "q_c", "q_a"]
        assert len(rows) == 1 + len(model1_report.queue_trace)

    def test_timeseries_schema(self, model1_report, tmp_path):
        emit_outputs(model1_report, str(tmp_path))
        rows = self.read(tmp_path / "timeseries.csv")
        assert rows[0] == ["t_bin", "flow_id", "throughput_mbps"]
        assert len(rows) > 1

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        emit_outputs(run_experiment(short_model1()), str(a))
        emit_outputs(run_experiment(short_model1()), str(b))
        for name in ("summary.csv", "aggregate.csv", "queue_trace.csv", "timeseries.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestSweeps:
    def test_every_sweep_preset_smokes(self, tmp_path):
        for preset in SWEEP_PRESETS:
            rows = run_sweep(preset, seed=1, duration=6.0, workers=1)
            per_disc = {report.discipline for _, report in rows}
            assert per_disc == {"red", "choke", "gchoke", "choked"}
            path = emit_sweep_csv(rows, str(tmp_path / preset))
            with open(path, encoding="utf-8") as fh:
                assert fh.readline().startswith("# schema: sweep")
                got = list(csv.reader(fh))
            assert got[0][0] == "point"
            assert len(got) == 1 + len(rows)

    def test_model2_sweep_shape(self):
        rows = run_sweep("model2-sweep", seed=1, duration=6.0, workers=2)
        assert len(rows) == 16
        labels = [label for label, _ in rows]
        assert labels.count("25-flows") == 4

    def test_sweep_deterministic(self):
        first = run_sweep("reno-vs-vegas", seed=1, duration=6.0, workers=1)
        second = run_sweep("reno-vs-vegas", seed=1, duration=6.0, workers=2)
        assert first == second

    @pytest.mark.parametrize("workers", [64, None])
    def test_workers_clamped_to_run_count(self, monkeypatch, workers):
        pools = []

        class RecordingPool:
            """Stands in for the process pool: records its size, starts no process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness, "run_experiment", lambda scenario: scenario.name)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        rows = run_sweep("reno-vs-vegas", seed=1, duration=6.0, workers=workers)
        assert len(rows) == 4
        assert pools == [4]


class TestCli:
    def test_run_with_preset_and_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main([
            "run", "--scenario", "model1-droptail", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        assert (out / "summary.csv").exists()
        assert "fairness" in capsys.readouterr().out

    def test_run_with_scenario_file(self, tmp_path, capsys):
        conf = tmp_path / "tiny.conf"
        conf.write_text(
            "[scenario]\nduration_s = 5\nwarmup_s = 1\n"
            "[qdisc]\ndiscipline = red\n[traffic]\nn_tcp = 1\nn_udp = 1\n"
        )
        assert cli_main(["run", "--scenario", str(conf)]) == 0

    def test_validate_reports_ok(self, capsys):
        assert cli_main(["validate", "--scenario", "model1-choke"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_file_whose_path_contains_equals(self, tmp_path, capsys):
        (tmp_path / "runs").mkdir()
        conf = tmp_path / "runs" / "run=1.conf"
        conf.write_text("[qdisc]\ndiscipline = red\n[traffic]\nn_tcp = 1\nn_udp = 1\n")
        assert cli_main(["validate", "--scenario", str(conf)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_bad_file(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("[qdisc]\ndiscipline = red\n")
        assert cli_main(["validate", "--scenario", str(conf)]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_scenario_errors(self, capsys):
        assert cli_main(["run", "--scenario", "no-such-thing"]) == 1
        assert "error" in capsys.readouterr().err

    def test_list_presets(self, capsys):
        assert cli_main(["list-presets"]) == 0
        out = capsys.readouterr().out
        assert "model1-choked" in out
        assert "model2-sweep (sweep)" in out

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_sweep_rejects_workers_below_one(self, capsys, workers):
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--preset", "reno-vs-vegas", "--workers", workers])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
