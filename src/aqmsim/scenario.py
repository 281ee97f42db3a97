"""Experiment configuration: a flat key = value text format and presets.

Grammar (line oriented, human-diffable):

    # comment                          blank lines and comments ignored; a
                                       comment is '#' at line start or after whitespace
    [section]                          sections: scenario, qdisc, traffic,
                                       links, flow.N (per-flow overrides)
    key = value

Sections and keys:

    [scenario]  name, duration_s, warmup_s, seed, sample_period_s
    [qdisc]     discipline (droptail|red|choke|gchoke|choked),
                buffer_pkts, t_min_pkts, t_max_pkts, w_q, max_p, maxcomp
    [traffic]   n_tcp, n_udp, tcp_variant (reno|vegas), app (ftp|http),
                udp_rate_mbps, tcp_start_spread_s,
                http_page_mean_pkts, http_think_mean_s
    [links]     bottleneck_mbps, bottleneck_delay_ms,
                access_mbps, access_delay_ms, packet_size_bits
    [flow.N]    variant, app (TCP flows only), access_mbps, access_delay_ms, start_s

Flow ids number UDP flows first (1..n_udp), then TCP flows;
`Scenario.flows` resolves each flow with its overrides applied. Only
[qdisc] discipline, [traffic] n_tcp and n_udp are required; every other
key has a default. Unknown sections or keys, and a key set twice, are
rejected with their line number. `Scenario.validate` is the one place
field values are judged.
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass, field, fields

from .qdisc import Discipline, QdiscParams
from .transport import MAX_CWND, MIN_RTO, AppKind, TcpVariant


class ScenarioError(Exception):
    """Invalid scenario document or field values."""


# Upper bounds on the inputs that size memory or work, far above every
# preset (B = 500, 100 flows, 2,001 queue samples, 2.6e5 packets).
MAX_BUFFER_PKTS = 100_000
MAX_FLOWS = 10_000
MAX_PACKETS = 10**8
MAX_QUEUE_SAMPLES = 100_000


@dataclass
class FlowSetup:
    """One flow's resolved parameters: the scenario's defaults with its
    [flow.N] overrides applied."""

    flow_id: int
    kind: str  # "tcp" | "udp"
    variant: TcpVariant
    app: AppKind
    access_bps: float
    access_delay_s: float
    start_s: float


@dataclass
class Scenario:
    name: str = "unnamed"
    discipline: Discipline = Discipline.CHOKED
    buffer_pkts: int = 100
    t_min: int = 40
    t_max: int = 80
    w_q: float = 0.02
    max_p: float = 0.1
    maxcomp: int = 3
    n_tcp: int = 0
    n_udp: int = 0
    tcp_variant: TcpVariant = TcpVariant.RENO
    app: AppKind = AppKind.FTP
    udp_rate_bps: float = 2e6
    packet_size_bits: int = 8000
    bottleneck_bps: float = 1e6
    bottleneck_delay_s: float = 0.010
    access_bps: float = 10e6
    access_delay_s: float = 0.001
    duration_s: float = 100.0
    warmup_s: float = 10.0
    seed: int = 1
    sample_period_s: float = 0.1
    tcp_start_spread_s: float = 1.0
    http_page_mean_pkts: float = 12.0
    http_think_mean_s: float = 1.0
    flow_overrides: dict[int, dict] = field(default_factory=dict)

    @property
    def n_flows(self) -> int:
        return self.n_tcp + self.n_udp

    def fair_share_bps(self) -> float:
        return self.bottleneck_bps / self.n_flows

    def flows(self) -> list[FlowSetup]:
        """One FlowSetup per flow, overrides applied. Flow ids number UDP
        flows first (1..n_udp), then TCP."""
        defaults = {
            "variant": self.tcp_variant,
            "app": self.app,
            "access_bps": self.access_bps,
            "access_delay_s": self.access_delay_s,
            "start_s": 0.0,
        }
        return [
            FlowSetup(flow_id, "udp" if flow_id <= self.n_udp else "tcp",
                      **(defaults | self.flow_overrides.get(flow_id, {})))
            for flow_id in range(1, self.n_flows + 1)
        ]

    def qdisc_params(self) -> QdiscParams:
        return QdiscParams(
            capacity=self.buffer_pkts,
            t_min=self.t_min,
            t_max=self.t_max,
            w_q=self.w_q,
            max_p=self.max_p,
            maxcomp=self.maxcomp,
        )

    def validate(self) -> None:
        problems = []
        # An infinite duration never terminates and NaN passes every
        # comparison below, so no float field may be non-finite.
        values = [(_TEXT_KEY.get(f.name, f.name), getattr(self, f.name)) for f in fields(self)]
        values += [
            (f"[flow.{flow_id}] {_TEXT_KEY.get(name, name)}", value)
            for flow_id, fields_ in self.flow_overrides.items()
            for name, value in fields_.items()
        ]
        for key, value in values:
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(f"{key}={value}: must be finite")
        resolvable = self.n_tcp >= 0 and self.n_udp >= 0 and 1 <= self.n_flows <= MAX_FLOWS
        if not resolvable:
            problems.append(f"n_tcp={self.n_tcp}, n_udp={self.n_udp}: need 1 to {MAX_FLOWS} flows")
        if self.buffer_pkts > MAX_BUFFER_PKTS:
            problems.append(f"buffer_pkts={self.buffer_pkts}: must be <= {MAX_BUFFER_PKTS}")
        if not 0 < self.t_min < self.t_max <= self.buffer_pkts:
            problems.append(
                f"t_min_pkts={self.t_min}, t_max_pkts={self.t_max}, "
                f"buffer_pkts={self.buffer_pkts}: need 0 < t_min < t_max <= buffer"
            )
        if not 0 < self.w_q <= 1:
            problems.append(f"w_q={self.w_q}: must be in (0, 1]")
        if not 0 < self.max_p <= 1:
            problems.append(f"max_p={self.max_p}: must be in (0, 1]")
        if self.maxcomp < 1:
            problems.append(f"maxcomp={self.maxcomp}: must be >= 1")
        if self.duration_s <= self.warmup_s or self.warmup_s < 0:
            problems.append(
                f"duration_s={self.duration_s}, warmup_s={self.warmup_s}: "
                f"need duration > warmup >= 0"
            )
        for key, value in (
            ("udp_rate_mbps", self.udp_rate_bps),
            ("bottleneck_mbps", self.bottleneck_bps),
            ("access_mbps", self.access_bps),
            ("bottleneck_delay_ms", self.bottleneck_delay_s),
            ("packet_size_bits", self.packet_size_bits),
            ("sample_period_s", self.sample_period_s),
            ("http_think_mean_s", self.http_think_mean_s),
        ):
            if value <= 0:
                problems.append(f"{key}: must be positive")
        if self.sample_period_s > 0 and self.duration_s / self.sample_period_s > MAX_QUEUE_SAMPLES:
            problems.append(f"duration_s / sample_period_s: must be <= {MAX_QUEUE_SAMPLES} queue samples")
        # Work budget: an upper estimate of the packets offered to the
        # bottleneck. CBR sends at its rate; TCP sends new data only on ACKs,
        # which the bottleneck clocks, at most two segments per ACK, plus at
        # most a full window per timeout.
        if self.packet_size_bits > 0:
            offered_pps = (
                self.n_udp * self.udp_rate_bps / self.packet_size_bits
                + 2 * self.bottleneck_bps / self.packet_size_bits
                + MAX_CWND * self.n_tcp / MIN_RTO
            )
            if self.duration_s * offered_pps > MAX_PACKETS:
                problems.append(f"duration_s x offered packet rate: must be <= {MAX_PACKETS} packets")
        if self.http_page_mean_pkts < 1:
            problems.append(f"http_page_mean_pkts={self.http_page_mean_pkts}: must be >= 1")
        # Access delay may be zero: short-RTT flows set their one-way
        # propagation entirely on the bottleneck link.
        if self.access_delay_s < 0:
            problems.append(f"access_delay_ms={self.access_delay_s * 1e3}: must be >= 0")
        if self.tcp_start_spread_s < 0:
            problems.append("tcp_start_spread_s: must be >= 0")
        for flow_id, fields_ in self.flow_overrides.items():
            if not 1 <= flow_id <= self.n_flows:
                problems.append(f"[flow.{flow_id}]: no such flow (1..{self.n_flows})")
                resolvable = False
            for name, value in fields_.items():
                if name not in _FLOW_ATTRS:
                    problems.append(f"[flow.{flow_id}] {name}: unknown override")
                    resolvable = False
                elif name == "access_bps" and value <= 0:
                    problems.append(f"[flow.{flow_id}] access_mbps: must be positive")
                elif name in ("access_delay_s", "start_s") and value < 0:
                    problems.append(f"[flow.{flow_id}] {name}: must be >= 0")
                elif name == "start_s" and value >= self.duration_s:
                    problems.append(f"[flow.{flow_id}] start_s={value}: must be < duration_s={self.duration_s}")
        if resolvable:
            udp_flows = [flow for flow in self.flows() if flow.kind == "udp"]
            for flow in udp_flows:
                for name in self.flow_overrides.get(flow.flow_id, {}):
                    if name in ("variant", "app"):
                        problems.append(f"[flow.{flow.flow_id}] {name}: TCP flows only; flow {flow.flow_id} is UDP")
            # A CBR source faster than its access link queues there without bound.
            if any(self.udp_rate_bps > flow.access_bps for flow in udp_flows):
                problems.append("udp_rate_mbps: must not exceed any UDP flow's access_mbps")
        if problems:
            raise ScenarioError("; ".join(problems))


_ENUMS = {
    "discipline": {d.value: d for d in Discipline},
    "tcp_variant": {v.value: v for v in TcpVariant},
    "variant": {v.value: v for v in TcpVariant},
    "app": {a.value: a for a in AppKind},
}

# (section, key) -> (Scenario attribute, converter)
_KEYMAP = {
    ("scenario", "name"): ("name", str),
    ("scenario", "duration_s"): ("duration_s", float),
    ("scenario", "warmup_s"): ("warmup_s", float),
    ("scenario", "seed"): ("seed", int),
    ("scenario", "sample_period_s"): ("sample_period_s", float),
    ("qdisc", "discipline"): ("discipline", "enum"),
    ("qdisc", "buffer_pkts"): ("buffer_pkts", int),
    ("qdisc", "t_min_pkts"): ("t_min", int),
    ("qdisc", "t_max_pkts"): ("t_max", int),
    ("qdisc", "w_q"): ("w_q", float),
    ("qdisc", "max_p"): ("max_p", float),
    ("qdisc", "maxcomp"): ("maxcomp", int),
    ("traffic", "n_tcp"): ("n_tcp", int),
    ("traffic", "n_udp"): ("n_udp", int),
    ("traffic", "tcp_variant"): ("tcp_variant", "enum"),
    ("traffic", "app"): ("app", "enum"),
    ("traffic", "udp_rate_mbps"): ("udp_rate_bps", "mbps"),
    ("traffic", "tcp_start_spread_s"): ("tcp_start_spread_s", float),
    ("traffic", "http_page_mean_pkts"): ("http_page_mean_pkts", float),
    ("traffic", "http_think_mean_s"): ("http_think_mean_s", float),
    ("links", "bottleneck_mbps"): ("bottleneck_bps", "mbps"),
    ("links", "bottleneck_delay_ms"): ("bottleneck_delay_s", "ms"),
    ("links", "access_mbps"): ("access_bps", "mbps"),
    ("links", "access_delay_ms"): ("access_delay_s", "ms"),
    ("links", "packet_size_bits"): ("packet_size_bits", int),
}

# Scenario attribute -> its key in the text format, for error messages.
_TEXT_KEY = {attr: key for (_, key), (attr, _) in _KEYMAP.items()}

_FLOW_KEYMAP = {
    "variant": ("variant", "enum"),
    "app": ("app", "enum"),
    "access_mbps": ("access_bps", "mbps"),
    "access_delay_ms": ("access_delay_s", "ms"),
    "start_s": ("start_s", float),
}

_FLOW_ATTRS = {attr for attr, _ in _FLOW_KEYMAP.values()}

_REQUIRED = {("qdisc", "discipline"), ("traffic", "n_tcp"), ("traffic", "n_udp")}

_COMMENT = re.compile(r"(?:^|\s)#")


def _convert(raw: str, converter, key: str, lineno: int):
    try:
        if converter == "enum":
            mapping = _ENUMS[key]
            if raw not in mapping:
                raise ValueError(f"expected one of {sorted(mapping)}")
            return mapping[raw]
        if converter == "mbps":
            return float(raw) * 1e6
        if converter == "ms":
            return float(raw) * 1e-3
        return converter(raw)
    except ValueError as exc:
        raise ScenarioError(f"line {lineno}: bad value for {key!r}: {exc}") from None


def parse_scenario_text(text: str) -> Scenario:
    scenario = Scenario()
    seen: dict[tuple[str, str], int] = {}  # (section, key) -> line number
    section = None
    flow_id = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw_line, 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in ("scenario", "qdisc", "traffic", "links"):
                section, flow_id = name, None
            elif name.startswith("flow."):
                try:
                    flow_id = int(name[5:])
                except ValueError:
                    raise ScenarioError(f"line {lineno}: bad flow section {name!r}") from None
                section = "flow"
                scenario.flow_overrides.setdefault(flow_id, {})
            else:
                raise ScenarioError(f"line {lineno}: unknown section [{name}]")
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ScenarioError(f"line {lineno}: key outside any [section]")
        key, raw = (part.strip() for part in line.split("=", 1))
        where = f"flow.{flow_id}" if section == "flow" else section
        if (where, key) in seen:
            raise ScenarioError(
                f"line {lineno}: key {key!r} in [{where}] already set on line {seen[(where, key)]}"
            )
        seen[(where, key)] = lineno
        if section == "flow":
            if key not in _FLOW_KEYMAP:
                raise ScenarioError(f"line {lineno}: unknown key {key!r} in [flow.{flow_id}]")
            attr, converter = _FLOW_KEYMAP[key]
            scenario.flow_overrides[flow_id][attr] = _convert(raw, converter, key, lineno)
            continue
        if (section, key) not in _KEYMAP:
            raise ScenarioError(f"line {lineno}: unknown key {key!r} in [{section}]")
        attr, converter = _KEYMAP[(section, key)]
        setattr(scenario, attr, _convert(raw, converter, key, lineno))
    missing = _REQUIRED - seen.keys()
    if missing:
        names = ", ".join(f"[{s}] {k}" for s, k in sorted(missing))
        raise ScenarioError(f"missing required key(s): {names}")
    scenario.validate()
    return scenario


def parse_scenario_file(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario_text(fh.read())


# Model 1: 33 FTP/TCP flows and one 2 Mb/s CBR flow under each discipline.
PRESETS = {f"model1-{d.value}": d for d in Discipline}

SWEEP_DISCIPLINES = (Discipline.RED, Discipline.CHOKE, Discipline.GCHOKE, Discipline.CHOKED)

# Flow counts for the many-unresponsive-flows model: 12% UDP traffic.
MODEL2_POINTS = ((25, 22, 3), (50, 44, 6), (73, 64, 9), (100, 88, 12))

BUFFER_SWEEP_SIZES = (100, 300, 500)

# sweep preset -> (default duration_s, [(point label, scenario name stem,
# Scenario field values)]). Every point runs under each of
# SWEEP_DISCIPLINES, in that reporting order.
SWEEPS = {
    "model2-sweep": (100.0, [
        (f"{total}-flows", f"model2-{total}", {"n_tcp": n_tcp, "n_udp": n_udp}) for total, n_tcp, n_udp in MODEL2_POINTS
    ]),
    "buffer-sweep": (100.0, [
        (f"B{b}", f"buffer{b}", {"n_tcp": 33, "n_udp": 1, "buffer_pkts": b}) for b in BUFFER_SWEEP_SIZES
    ]),
    # 22 TCPs: half with 50 ms RTT, half with 20 ms. One-way propagation is
    # RTT/2; the bottleneck contributes 10 ms, so the access links carry
    # 15 ms and 0 ms respectively. Flows 1..3 are UDP.
    "rtt-mix": (200.0, [("rtt-mix", "rttmix", {"n_tcp": 22, "n_udp": 3, "flow_overrides": {
        4 + i: {"access_delay_s": 0.015 if i < 11 else 0.0} for i in range(22)
    }})]),
    # The inter-protocol run drives its single CBR source at 0.6 Mb/s:
    # under RED an unresponsive flow keeps nearly its offered rate, and the
    # reported RED-row UDP throughput sits at ~0.57 Mb/s.
    "reno-vs-vegas": (100.0, [("reno-vs-vegas", "renovegas", {
        "n_tcp": 2, "n_udp": 1, "udp_rate_bps": 0.6e6, "flow_overrides": {3: {"variant": TcpVariant.VEGAS}}
    })]),
    # Flow 1 is the UDP source, flows 2..16 stay FTP, 17..31 run HTTP.
    "web-mix": (100.0, [("web-mix", "webmix", {"n_tcp": 30, "n_udp": 1, "flow_overrides": {
        17 + i: {"app": AppKind.HTTP} for i in range(15)
    }})]),
}

SWEEP_PRESETS = tuple(SWEEPS)


def load_preset(name: str) -> Scenario:
    if name not in PRESETS:
        raise ScenarioError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    return Scenario(name=name, discipline=PRESETS[name], n_tcp=33, n_udp=1)


def _sweep_point(name: str, discipline: Discipline, **kwargs) -> Scenario:
    scenario = Scenario(name=name, discipline=discipline, **kwargs)
    if scenario.warmup_s >= scenario.duration_s:
        scenario.warmup_s = scenario.duration_s / 5.0  # shortened smoke runs
    scenario.validate()
    return scenario


def sweep_scenarios(preset: str, seed: int = 1, duration: float | None = None) -> list[tuple[str, Scenario]]:
    """(point label, scenario) pairs for a sweep preset, one per
    (discipline, point)."""
    if preset not in SWEEPS:
        raise ScenarioError(f"unknown sweep preset {preset!r}; known: {sorted(SWEEP_PRESETS)}")
    default_duration, points = SWEEPS[preset]
    duration_s = default_duration if duration is None else duration
    # deepcopy: no two scenarios share a flow_overrides dict.
    return [
        (label, _sweep_point(f"{stem}-{d.value}", d, seed=seed, duration_s=duration_s,
                             **copy.deepcopy(values)))
        for d in SWEEP_DISCIPLINES
        for label, stem, values in points
    ]
