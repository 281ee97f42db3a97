import math
from dataclasses import fields, replace

import pytest

from aqmsim.qdisc import Discipline
from aqmsim.scenario import (
    MODEL2_POINTS,
    PRESETS,
    SWEEP_PRESETS,
    Scenario,
    ScenarioError,
    load_preset,
    parse_scenario,
    parse_scenario_text,
    sweep_scenarios,
)
from aqmsim.transport import AppKind, TcpVariant

MINIMAL = """\
[qdisc]
discipline = choked

[traffic]
n_tcp = 2
n_udp = 1
"""


class TestParsing:
    def test_model1_choked_preset_values(self):
        scenario = load_preset("model1-choked")
        assert scenario.n_tcp == 33
        assert scenario.n_udp == 1
        assert scenario.buffer_pkts == 100
        assert scenario.t_min == 40
        assert scenario.t_max == 80
        assert scenario.w_q == pytest.approx(0.02)
        assert scenario.discipline is Discipline.CHOKED
        assert scenario.udp_rate_bps == pytest.approx(2e6)
        assert scenario.bottleneck_bps == pytest.approx(1e6)
        assert scenario.bottleneck_delay_s == pytest.approx(0.010)

    def test_defaults_applied(self):
        scenario = parse_scenario_text(MINIMAL)
        assert scenario.seed == 1
        assert scenario.duration_s == 100.0
        assert scenario.warmup_s == 10.0
        assert scenario.max_p == pytest.approx(0.1)
        assert scenario.tcp_variant is TcpVariant.RENO
        assert scenario.app is AppKind.FTP

    def test_thresholds_inverted_names_both_keys(self):
        doc = MINIMAL + "t_min_pkts = 80\nt_max_pkts = 40\n"
        doc = doc.replace("discipline = choked", "discipline = choked\nt_min_pkts = 80\nt_max_pkts = 40")
        with pytest.raises(ScenarioError) as err:
            parse_scenario_text(MINIMAL.replace(
                "discipline = choked",
                "discipline = choked\nt_min_pkts = 80\nt_max_pkts = 40",
            ))
        assert "t_min" in str(err.value) and "t_max" in str(err.value)

    def test_unknown_key_reports_line(self):
        doc = MINIMAL + "\n[links]\nwarp_factor = 9\n"
        with pytest.raises(ScenarioError) as err:
            parse_scenario_text(doc)
        assert "warp_factor" in str(err.value)
        assert "line 9" in str(err.value)

    def test_unknown_discipline_rejected(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario_text(MINIMAL.replace("choked", "codel"))
        assert "discipline" in str(err.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario_text(MINIMAL + "\n[plasma]\nx = 1\n")

    def test_missing_required_keys_named(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario_text("[qdisc]\ndiscipline = red\n")
        assert "n_tcp" in str(err.value)

    def test_key_outside_section_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario_text("discipline = red\n")

    def test_flow_override_section(self):
        doc = MINIMAL + "\n[flow.3]\nvariant = vegas\naccess_delay_ms = 15\n"
        scenario = parse_scenario_text(doc)
        assert scenario.flow_overrides[3]["variant"] is TcpVariant.VEGAS
        assert scenario.flow_overrides[3]["access_delay_s"] == pytest.approx(0.015)

    def test_flow_override_out_of_range_rejected(self):
        doc = MINIMAL + "\n[flow.9]\nvariant = vegas\n"
        with pytest.raises(ScenarioError):
            parse_scenario_text(doc)

    def test_comments_and_blank_lines_ignored(self):
        doc = "# header\n\n" + MINIMAL.replace("n_tcp = 2", "n_tcp = 2  # inline")
        assert parse_scenario_text(doc).n_tcp == 2

    def test_parse_from_file(self, tmp_path):
        path = tmp_path / "scenario.conf"
        path.write_text(MINIMAL)
        assert parse_scenario(str(path)).n_tcp == 2

    def test_bad_value_reports_line_and_key(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario_text(MINIMAL.replace("n_tcp = 2", "n_tcp = lots"))
        assert "n_tcp" in str(err.value)


class TestValidation:
    def test_duration_must_exceed_warmup(self):
        scenario = parse_scenario_text(MINIMAL)
        scenario.duration_s = 5.0
        scenario.warmup_s = 10.0
        with pytest.raises(ScenarioError):
            scenario.validate()

    def test_at_least_one_flow(self):
        with pytest.raises(ScenarioError):
            Scenario(n_tcp=0, n_udp=0).validate()

    @pytest.mark.parametrize(
        "field_name",
        [f.name for f in fields(Scenario) if isinstance(getattr(Scenario(), f.name), float)],
    )
    def test_non_finite_float_rejected(self, field_name):
        valid = parse_scenario_text(MINIMAL)
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ScenarioError, match="must be finite"):
                replace(valid, **{field_name: value}).validate()

    @pytest.mark.parametrize(
        "doc",
        [
            "[scenario]\nduration_s = inf\n",
            "[scenario]\nwarmup_s = nan\n",
            "[links]\nbottleneck_mbps = nan\n",
            "[traffic]\nudp_rate_mbps = inf\n",
            "[flow.2]\nstart_s = inf\n",
        ],
    )
    def test_non_finite_value_rejected_at_parse(self, doc):
        with pytest.raises(ScenarioError, match="must be finite"):
            parse_scenario_text(MINIMAL + doc)

    def test_fair_share(self):
        scenario = Scenario(n_tcp=33, n_udp=1)
        assert scenario.fair_share_bps() == pytest.approx(1e6 / 34)


class TestPresets:
    def test_all_single_run_presets_parse(self):
        for name in PRESETS:
            scenario = load_preset(name)
            scenario.validate()

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError):
            load_preset("model9-warp")

    def test_model2_points_are_12_percent_udp(self):
        for total, n_tcp, n_udp in MODEL2_POINTS:
            assert n_tcp + n_udp == total
            assert n_udp == round(0.12 * total)

    def test_model2_sweep_row_count(self):
        rows = sweep_scenarios("model2-sweep", seed=1)
        assert len(rows) == 16  # 4 flow counts x 4 disciplines

    def test_buffer_sweep_row_count(self):
        rows = sweep_scenarios("buffer-sweep", seed=1)
        assert len(rows) == 12  # 3 sizes x 4 disciplines
        assert {s.buffer_pkts for _, s in rows} == {100, 300, 500}

    def test_rtt_mix_is_200_seconds(self):
        rows = sweep_scenarios("rtt-mix", seed=1)
        assert all(s.duration_s == 200.0 for _, s in rows)

    def test_unknown_sweep_preset(self):
        with pytest.raises(ScenarioError):
            sweep_scenarios("bogus-sweep")

    def test_sweep_preset_names(self):
        assert set(SWEEP_PRESETS) == {
            "model2-sweep", "buffer-sweep", "rtt-mix", "reno-vs-vegas", "web-mix",
        }
