import math
import pathlib
import re
from dataclasses import fields, replace

import pytest

from aqmsim.qdisc import Discipline
from aqmsim.scenario import (
    MAX_BUFFER_PKTS,
    MAX_FLOWS,
    MAX_PACKETS,
    MAX_QUEUE_SAMPLES,
    MODEL2_POINTS,
    PRESETS,
    SWEEP_PRESETS,
    _KEYS,
    _REQUIRED,
    Scenario,
    ScenarioError,
    load_preset,
    parse_scenario_file,
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

# The model-1 scenario in full, as a document.
MODEL1_CHOKED = """\
[scenario]
name = model1-choked
duration_s = 100
warmup_s = 10
seed = 1

[qdisc]
discipline = choked
buffer_pkts = 100
t_min_pkts = 40
t_max_pkts = 80
w_q = 0.02

[traffic]
n_tcp = 33
n_udp = 1
udp_rate_mbps = 2.0

[links]
bottleneck_mbps = 1.0
bottleneck_delay_ms = 10
access_mbps = 10.0
access_delay_ms = 1.0
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

    def test_model1_text_equals_preset(self):
        assert parse_scenario_text(MODEL1_CHOKED) == load_preset("model1-choked")

    def test_defaults_applied(self):
        scenario = parse_scenario_text(MINIMAL)
        assert scenario.seed == 1
        assert scenario.duration_s == 100.0
        assert scenario.warmup_s == 10.0
        assert scenario.max_p == pytest.approx(0.1)
        assert scenario.tcp_variant is TcpVariant.RENO
        assert scenario.app is AppKind.FTP

    def test_thresholds_inverted_names_both_keys(self):
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

    def test_hash_inside_a_value_is_kept(self):
        doc = MINIMAL + "\n[scenario]\nname = a#b  # trailing comment\n"
        assert parse_scenario_text(doc).name == "a#b"

    def test_parse_from_file(self, tmp_path):
        path = tmp_path / "scenario.conf"
        path.write_text(MINIMAL)
        assert parse_scenario_file(str(path)).n_tcp == 2

    def test_parse_from_file_whose_path_contains_equals(self, tmp_path):
        path = tmp_path / "run=1.conf"
        path.write_text(MINIMAL)
        assert parse_scenario_file(str(path)).n_tcp == 2

    def test_key_repeated_in_second_section_rejected(self):
        with pytest.raises(ScenarioError, match="line 9: key 'n_tcp' in \\[traffic\\] already set on line 5"):
            parse_scenario_text(MINIMAL + "\n[traffic]\nn_tcp = 5\n")

    def test_key_repeated_in_flow_section_rejected(self):
        doc = MINIMAL + "\n[flow.3]\nvariant = vegas\nvariant = reno\n"
        with pytest.raises(ScenarioError, match="line 10: key 'variant' in \\[flow.3\\] already set on line 9"):
            parse_scenario_text(doc)

    def test_same_key_in_two_flow_sections_accepted(self):
        doc = MINIMAL + "\n[flow.2]\nvariant = vegas\n[flow.3]\nvariant = vegas\n"
        assert parse_scenario_text(doc).flow_overrides == {
            2: {"variant": TcpVariant.VEGAS},
            3: {"variant": TcpVariant.VEGAS},
        }

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

    # rule -> (field values that break it, text the error must contain)
    RULES = {
        "no-flows": ({"n_tcp": 0, "n_udp": 0}, "flows"),
        "negative-flow-count": ({"n_tcp": -1, "n_udp": 2}, "flows"),
        "too-many-flows": ({"n_tcp": MAX_FLOWS, "n_udp": 1}, "flows"),
        "buffer-too-large": ({"buffer_pkts": MAX_BUFFER_PKTS + 1}, "buffer_pkts"),
        "thresholds-inverted": ({"t_min": 80, "t_max": 40}, "t_min"),
        "t-max-above-buffer": ({"buffer_pkts": 50}, "t_max"),
        "w-q-zero": ({"w_q": 0.0}, "w_q"),
        "max-p-above-one": ({"max_p": 1.5}, "max_p"),
        "maxcomp-zero": ({"maxcomp": 0}, "maxcomp"),
        "too-many-queue-samples": ({"sample_period_s": 1e-9}, "sample_period_s"),
        "udp-rate-above-access": ({"udp_rate_bps": 20e6}, "udp_rate_mbps"),
        "udp-rate-above-flow-access": ({"flow_overrides": {1: {"access_bps": 1e6}}}, "udp_rate_mbps"),
        "http-page-mean-below-one": ({"http_page_mean_pkts": 0.0}, "http_page_mean_pkts"),
        "http-think-mean-zero": ({"http_think_mean_s": 0.0}, "http_think_mean_s"),
        "http-think-mean-negative": ({"http_think_mean_s": -1.0}, "http_think_mean_s"),
        "flow-starts-at-duration": ({"flow_overrides": {2: {"start_s": 100.0}}}, "start_s"),
        "flow-start-negative": ({"flow_overrides": {2: {"start_s": -1.0}}}, r"\[flow\.2\] start_s"),
        "flow-access-rate-zero": ({"flow_overrides": {2: {"access_bps": 0.0}}}, r"\[flow\.2\] access_mbps"),
        "flow-access-delay-negative": (
            {"flow_overrides": {2: {"access_delay_s": -0.005}}}, r"\[flow\.2\] access_delay_ms",
        ),
        "bottleneck-delay-zero": ({"bottleneck_delay_s": 0.0}, "bottleneck_delay_ms"),
        "override-unknown-flow": ({"flow_overrides": {99: {"start_s": 1.0}}}, "flow.99"),
        "override-unknown-field": ({"flow_overrides": {1: {"bogus": 1.0}}}, "bogus"),
        "udp-flow-variant-override": ({"flow_overrides": {1: {"variant": TcpVariant.VEGAS}}}, r"\[flow\.1\] variant"),
        "udp-flow-app-override": ({"flow_overrides": {1: {"app": AppKind.HTTP}}}, r"\[flow\.1\] app"),
        # 3.75e11 packets: 10,000 Mb/s everywhere for 100,000 s.
        "work-budget-fast-links": (
            {"duration_s": 100_000.0, "sample_period_s": 1000.0, "bottleneck_bps": 1e10, "access_bps": 1e10,
             "udp_rate_bps": 1e10},
            "packets",
        ),
        # 4e8 packets: 1-bit packets at the default rates.
        "work-budget-one-bit-packets": ({"packet_size_bits": 1}, "packets"),
    }

    @pytest.mark.parametrize("values, named", RULES.values(), ids=RULES.keys())
    def test_rule_rejected(self, values, named):
        with pytest.raises(ScenarioError, match=named):
            replace(load_preset("model1-choked"), **values).validate()

    @pytest.mark.parametrize(
        "values",
        [
            {"n_tcp": MAX_FLOWS - 1, "n_udp": 1},
            {"buffer_pkts": MAX_BUFFER_PKTS},
            {"sample_period_s": 100.0 / MAX_QUEUE_SAMPLES},
            {"udp_rate_bps": 10e6},
            {"flow_overrides": {1: {"access_bps": 2e6}, 2: {"start_s": 99.9}}},
            {"http_page_mean_pkts": 1.0},
            # (138 + 2 * 125 + 64 * 33) packets/s for 40,000 s = MAX_PACKETS.
            {"udp_rate_bps": 1.104e6, "duration_s": MAX_PACKETS / 2500, "sample_period_s": 0.4},
        ],
        ids=["flows", "buffer", "queue-samples", "udp-rate", "flow-overrides", "http-page-mean", "work-budget"],
    )
    def test_bound_itself_accepted(self, values):
        replace(load_preset("model1-choked"), **values).validate()

    def test_fair_share(self):
        scenario = Scenario(n_tcp=33, n_udp=1)
        assert scenario.fair_share_bps() == pytest.approx(1e6 / 34)


class TestFlows:
    def test_model1_counts(self):
        flows = Scenario(n_tcp=33, n_udp=1).flows()
        assert len(flows) == 34
        assert flows[0].kind == "udp" and flows[0].flow_id == 1
        assert all(f.kind == "tcp" for f in flows[1:])

    def test_model2_point(self):
        flows = Scenario(n_tcp=22, n_udp=3).flows()
        assert sum(1 for f in flows if f.kind == "udp") == 3
        assert sum(1 for f in flows if f.kind == "tcp") == 22

    def test_scenario_defaults_and_overrides_applied(self):
        scenario = Scenario(
            n_tcp=2, n_udp=1, tcp_variant=TcpVariant.VEGAS, access_delay_s=0.002,
            flow_overrides={3: {"variant": TcpVariant.RENO, "start_s": 0.5}},
        )
        flows = scenario.flows()
        assert [f.variant for f in flows[1:]] == [TcpVariant.VEGAS, TcpVariant.RENO]
        assert [f.start_s for f in flows] == [0.0, 0.0, 0.5]
        assert all(f.access_delay_s == 0.002 and f.access_bps == 10e6 for f in flows)


def test_readme_scenario_example_parses_and_validates():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scenario format\n", 1)[1].split("\n## ", 1)[0]
    example = re.search(r"^```\n(.*?)^```$", section, re.M | re.S).group(1)
    scenario = parse_scenario_text(example)
    assert scenario.name == "example"
    assert scenario.flow_overrides == {
        3: {"variant": TcpVariant.VEGAS, "app": AppKind.HTTP, "access_bps": 10e6,
            "access_delay_s": 0.015, "start_s": 0.5},
    }
    # The example writes every key once, and every optional key outside
    # [flow.N] at its default, as the README says.
    written, section = [], None
    for line in example.splitlines():
        line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if line.startswith("["):
            section = "flow" if line.startswith("[flow.") else line[1:-1]
        elif line:
            written.append((section, line.split("=", 1)[0].strip()))
    assert sorted(written) == sorted(_KEYS)
    defaults = Scenario()
    for (section, key), (attr, _) in _KEYS.items():
        if section != "flow" and (section, key) not in _REQUIRED and key != "name":
            assert getattr(scenario, attr) == getattr(defaults, attr), key


class TestPresets:
    def test_all_single_run_presets_parse(self):
        for name in PRESETS:
            scenario = load_preset(name)
            scenario.validate()

    def test_load_preset_returns_a_fresh_scenario(self):
        first, second = load_preset("model1-red"), load_preset("model1-red")
        assert first == second
        assert first is not second and first.flow_overrides is not second.flow_overrides

    def test_sweep_scenarios_share_no_overrides(self):
        rows = sweep_scenarios("rtt-mix", seed=1) + sweep_scenarios("rtt-mix", seed=1)
        assert len({id(s.flow_overrides) for _, s in rows}) == len(rows)

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

    def test_sweep_zero_duration_rejected(self):
        with pytest.raises(ScenarioError, match="duration_s"):
            sweep_scenarios("rtt-mix", seed=1, duration=0.0)

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
