"""Declarative, serializable simulation specs (DESIGN.md, Layer 5).

A :class:`Scenario` describes one simulation point (or one load sweep)
entirely as data: string-keyed references into the topology, routing,
traffic and workload registries plus a :class:`~repro.sim.config.SimConfig`
and sweep axes.  Nothing here holds a live object — specs round-trip
losslessly through ``to_dict()``/``from_dict()`` (and therefore JSON),
can be committed next to their results, and hash stably
(:func:`scenario_hash`), which is what makes resumable campaigns
possible.

Resolution of a spec into live simulator inputs lives in
:mod:`repro.scenarios.resolve`; grid expansion in
:mod:`repro.scenarios.campaign`; execution in
:mod:`repro.scenarios.runner`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

from repro.routing.registry import FAULT_AWARE, ROUTING_BUILDERS, SEEDED
from repro.sim.backends import ENGINE_BACKENDS
from repro.sim.config import SimConfig
from repro.sim.telemetry import TelemetrySpec
from repro.topologies.registry import TOPOLOGY_BUILDERS, validate_shape_params
from repro.traffic.registry import PATTERN_KINDS
from repro.workloads.registry import PLACEMENT_KINDS, WORKLOAD_KINDS


def canonical_json(data) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _campaign_field(row: dict, campaign: str) -> tuple[int, str]:
    """Offset and text of the campaign field in a stamped row's encoding.

    The field sits at its sorted-key position, found by encoding only
    the keys that sort before ``"campaign"`` (in result rows:
    ``accepted`` and the ``avg_*`` latencies, all scalars), so a row
    with thousands of channel loads costs no second encoding.
    """
    if "campaign" in row:
        raise ValueError("row already carries a campaign name")
    before = {k: row[k] for k in row if k < "campaign"}
    # canonical_json(before) is the row text's prefix up to its closing brace.
    cut = len(canonical_json(before)) - 1
    field = '"campaign":' + canonical_json(campaign)
    if before:
        field = "," + field
    elif row:
        field += ","
    return cut, field


def splice_campaign(text: str, row: dict, campaign: str) -> str:
    """``canonical_json({"campaign": campaign, **row})`` without re-encoding ``row``.

    ``text`` must be ``canonical_json(row)`` and ``row`` must not carry
    a ``campaign`` key; the campaign field is one string insertion.
    """
    cut, field = _campaign_field(row, campaign)
    return text[:cut] + field + text[cut:]


def unsplice_campaign(stamped: str, row: dict, campaign: str) -> str:
    """The inverse of :func:`splice_campaign`: ``stamped`` minus its campaign field.

    ``row`` is the stamped row without its ``campaign`` key.  Raises
    :class:`ValueError` unless ``stamped`` carries ``campaign`` at its
    canonical position, so splicing the result back gives ``stamped``.
    """
    cut, field = _campaign_field(row, campaign)
    if not stamped.startswith(field, cut):
        raise ValueError("the campaign field is not at its canonical position")
    return stamped[:cut] + stamped[cut + len(field) :]


def _object(data, where: str) -> dict:
    """``data`` when it is a JSON object, else a ValueError naming ``where``."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {data!r}")
    return data


def _string(data: dict, key: str, where: str, default=None) -> str:
    """``data[key]`` when it is a string, else a ValueError naming the field."""
    value = data.get(key, default)
    if not isinstance(value, str):
        raise ValueError(f"{where}.{key} must be a string, got {value!r}")
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(data: dict, key: str, where: str, default, nullable=False):
    """``data[key]`` when it is an integer (``None`` too if ``nullable``),
    else a ValueError naming the field."""
    value = data.get(key, default)
    if not (_is_int(value) or (nullable and value is None)):
        raise ValueError(f"{where}.{key} must be an integer, got {value!r}")
    return value


def _list(data: dict, key: str, where: str, item, what: str) -> list:
    """``data[key]`` (absent or null: empty) when it is a list of ``what``
    (each element passes ``item``), else a ValueError naming the field."""
    value = data.get(key) or []
    if not (isinstance(value, list) and all(map(item, value))):
        raise ValueError(f"{where}.{key} must be a list of {what}, got {value!r}")
    return value


def _params(data: dict, where: str) -> dict:
    """A copy of ``data["params"]`` (absent or null: empty)."""
    return dict(_object(data.get("params") or {}, f"{where}.params"))


@dataclass
class TopologySpec:
    """A topology by registry name.

    ``target_endpoints`` asks :func:`repro.topologies.registry.balanced_instance`
    for the closest balanced instance; ``params`` pin the exact shape
    instead (e.g. ``{"q": 19}`` for SF, ``{"h": 7}`` for DF,
    ``{"p": 22}`` for FT-3, plus ``{"concentration": p}`` for
    oversubscribed Slim Flies).  ``seed`` only matters for randomised
    constructions (DLN).
    """

    name: str
    target_endpoints: int | None = None
    seed: int | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in TOPOLOGY_BUILDERS:
            raise ValueError(
                f"unknown topology {self.name!r}; "
                f"choose from {sorted(TOPOLOGY_BUILDERS)}"
            )
        self.params = dict(self.params)
        validate_shape_params(self.name, self.target_endpoints, self.params)
        # Randomised constructions must be pinned: an entropy-seeded
        # topology would void the resume/byte-identity guarantee.
        if self.name == "DLN" and self.seed is None:
            self.seed = 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "target_endpoints": self.target_endpoints,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TopologySpec":
        _object(data, "topology")
        return cls(
            name=_string(data, "name", "topology"),
            target_endpoints=data.get("target_endpoints"),
            seed=data.get("seed"),
            params=_params(data, "topology"),
        )


@dataclass
class RoutingSpec:
    """A routing algorithm by registry name.

    ``params`` go to the constructor through
    :func:`repro.routing.registry.make_routing` (``seed``,
    ``num_candidates``, ``max_hops``, ...).  Randomised algorithms
    (:data:`repro.routing.registry.SEEDED`) get ``seed=0`` filled in
    when omitted — a spec must pin every source of randomness, or the
    runner's resume/byte-identity guarantee would silently not hold.
    """

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in ROUTING_BUILDERS:
            raise ValueError(
                f"unknown routing {self.name!r}; "
                f"choose from {sorted(ROUTING_BUILDERS)}"
            )
        # Copy before filling: never mutate a caller-supplied dict.
        self.params = dict(self.params)
        if self.name in SEEDED and self.params.get("seed") is None:
            self.params["seed"] = 0

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "RoutingSpec":
        _object(data, "routing")
        return cls(
            name=_string(data, "name", "routing"), params=_params(data, "routing")
        )


@dataclass
class TrafficSpec:
    """An open-loop traffic pattern by registry name (§V patterns).

    ``seed`` only exists for the (randomised) worst-case generator: it
    defaults to 0 there so the resolved pattern is always
    reproducible, and is normalised to ``None`` for the deterministic
    kinds — otherwise two specs describing the identical simulation
    would hash differently and defeat dedup/resume.
    """

    pattern: str
    seed: int | None = None

    def __post_init__(self):
        if self.pattern not in PATTERN_KINDS:
            raise ValueError(
                f"unknown pattern {self.pattern!r}; choose from {PATTERN_KINDS}"
            )
        self.seed = (self.seed or 0) if self.pattern == "worstcase" else None

    def to_dict(self) -> dict:
        return {"pattern": self.pattern, "seed": self.seed}

    @classmethod
    def from_dict(cls, data: dict) -> "TrafficSpec":
        _object(data, "traffic")
        return cls(pattern=_string(data, "pattern", "traffic"), seed=data.get("seed"))


@dataclass
class WorkloadSpec:
    """A closed-loop workload by registry name.

    ``ranks`` is an upper bound (shape-constrained kinds round down,
    exactly like ``make_workload``); ``placement`` names the
    rank -> endpoint strategy.
    """

    kind: str
    ranks: int
    size_flits: int = 16
    iterations: int = 2
    placement: str = "spread"

    def __post_init__(self):
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload {self.kind!r}; choose from {WORKLOAD_KINDS}"
            )
        if self.placement not in PLACEMENT_KINDS:
            raise ValueError(
                f"unknown placement {self.placement!r}; "
                f"choose from {PLACEMENT_KINDS}"
            )
        if self.ranks < 2:
            raise ValueError(f"ranks must be >= 2, got {self.ranks}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "ranks": self.ranks,
            "size_flits": self.size_flits,
            "iterations": self.iterations,
            "placement": self.placement,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        _object(data, "workload")
        return cls(
            kind=_string(data, "kind", "workload"),
            ranks=_integer(data, "ranks", "workload", None),
            size_flits=_integer(data, "size_flits", "workload", 16),
            iterations=_integer(data, "iterations", "workload", 2),
            placement=data.get("placement", "spread"),
        )


@dataclass
class FaultSpec:
    """Failures injected into the topology at resolve time (§III-D).

    ``link_fraction``/``router_fraction`` kill a seeded-random share of
    the cables/routers (``round(fraction * count)`` of each, sampled
    without replacement); ``cut_links``/``cut_routers`` name targeted
    casualties exactly.  A dead router loses every one of its cables.
    The ``seed`` pins the random sample: it defaults to 0 whenever a
    fraction actually samples and is normalised to ``None`` when none
    does (targeted cuts are deterministic) — otherwise two specs
    describing the identical degraded network would hash differently
    and defeat campaign dedup/resume.

    A spec that injects nothing at all (fractions 0, no cuts) is the
    healthy network; :class:`Scenario` normalises it to ``None`` so
    the healthy state always serializes — and hashes — one way.
    """

    link_fraction: float = 0.0
    router_fraction: float = 0.0
    seed: int | None = None
    cut_links: list = field(default_factory=list)
    cut_routers: list = field(default_factory=list)

    def __post_init__(self):
        for name in ("link_fraction", "router_fraction"):
            value = float(getattr(self, name))
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")
            setattr(self, name, value)
        # Cut lists normalise to sorted unique (min, max) pairs /
        # router ids: two specs naming the same casualties in any
        # order or orientation serialize (and hash) identically.
        links = set()
        for pair in self.cut_links:
            u, v = (int(x) for x in pair)
            if u == v:
                raise ValueError(f"cut link ({u}, {v}) is a self-loop")
            if u < 0 or v < 0:
                raise ValueError(f"cut link ({u}, {v}) has a negative router")
            links.add((min(u, v), max(u, v)))
        self.cut_links = sorted(links)
        self.cut_routers = sorted({int(r) for r in self.cut_routers})
        if self.cut_routers and self.cut_routers[0] < 0:
            raise ValueError("cut_routers must be non-negative router ids")
        if self.link_fraction > 0 or self.router_fraction > 0:
            self.seed = int(self.seed or 0)
        else:
            self.seed = None

    @property
    def is_null(self) -> bool:
        """True when the spec injects no failure at all."""
        return (
            self.link_fraction == 0.0
            and self.router_fraction == 0.0
            and not self.cut_links
            and not self.cut_routers
        )

    def to_dict(self) -> dict:
        return {
            "link_fraction": self.link_fraction,
            "router_fraction": self.router_fraction,
            "seed": self.seed,
            "cut_links": [list(pair) for pair in self.cut_links],
            "cut_routers": list(self.cut_routers),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        _object(data, "fault")
        cut_links = _list(
            data, "cut_links", "fault",
            lambda p: isinstance(p, (list, tuple)) and len(p) == 2 and all(map(_is_int, p)),
            "[router, router] pairs",
        )
        return cls(
            link_fraction=data.get("link_fraction", 0.0),
            router_fraction=data.get("router_fraction", 0.0),
            seed=data.get("seed"),
            cut_links=[tuple(p) for p in cut_links],
            cut_routers=list(_list(data, "cut_routers", "fault", _is_int, "router ids")),
        )


def sim_config_to_dict(config: SimConfig) -> dict:
    """A SimConfig as a plain field dict (JSON-ready, lossless)."""
    return asdict(config)


#: SimConfig fields that must be at least 1; the other delays, cycle
#: counts and the seed must be at least 0.
_SIM_AT_LEAST_ONE = frozenset(
    {"packet_length", "measure_cycles", "speedup", "num_vcs", "buffer_per_port"}
)


def sim_config_from_dict(data: dict) -> SimConfig:
    """Rebuild a SimConfig from its ``sim_config_to_dict`` form."""
    if not isinstance(data, dict):
        raise ValueError(f"sim must be a mapping of SimConfig fields, got {data!r}")
    unknown = sorted(set(data) - {f.name for f in fields(SimConfig)})
    if unknown:
        raise ValueError(f"unknown sim field(s) {unknown}")
    return SimConfig(**data)


def _check_sim(config: SimConfig) -> None:
    """Every SimConfig field an integer in its range.

    A null seed draws fresh entropy per run (rows stop reproducing);
    a zero packet length or a negative window publishes rows no
    engine simulated."""
    for f in fields(SimConfig):
        value = getattr(config, f.name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"sim.{f.name} must be an integer, got {value!r}")
        low = 1 if f.name in _SIM_AT_LEAST_ONE else 0
        if value < low:
            raise ValueError(f"sim.{f.name} must be >= {low}, got {value}")


@dataclass
class Scenario:
    """One fully-described simulation: specs + sweep axes.

    Exactly one of ``traffic`` (open loop: a latency-vs-load sweep
    over ``loads``, averaged over ``replicas`` derived seeds) or
    ``workload`` (closed loop: one completion-time run bounded by
    ``max_cycles``) must be set.  ``label`` is cosmetic but part of
    the serialized form, so relabelling changes the scenario hash.

    ``backend`` is the engine-fidelity axis
    (:data:`repro.sim.backends.ENGINE_BACKENDS`): ``"cycle"`` runs the
    cycle-accurate engine, ``"flow"`` the flow-level fluid solver.
    The default is omitted from the serialized form, so pre-backend
    JSON specs load unchanged and every existing scenario hash — the
    resume/dedup identity of published result files — is preserved.

    ``telemetry`` arms the opt-in probe plane
    (:class:`repro.sim.telemetry.TelemetrySpec`): armed probes flow
    into the campaign's ``.metrics.jsonl`` sidecar.  Like ``backend``,
    the off state (``None`` *or* an all-off spec) is omitted from the
    serialized form, so telemetry-free scenarios keep their pre-
    telemetry hashes.
    """

    topology: TopologySpec
    routing: RoutingSpec
    sim: SimConfig = field(default_factory=SimConfig)
    traffic: TrafficSpec | None = None
    workload: WorkloadSpec | None = None
    loads: list[float] = field(default_factory=list)
    replicas: int = 1
    stop_after_saturation: int = 1
    max_cycles: int | None = None
    label: str = ""
    backend: str = "cycle"
    telemetry: TelemetrySpec | None = None
    fault: FaultSpec | None = None

    def __post_init__(self):
        if self.backend not in ENGINE_BACKENDS:
            raise ValueError(
                f"unknown engine backend {self.backend!r}; "
                f"choose from {sorted(ENGINE_BACKENDS)}"
            )
        if (self.traffic is None) == (self.workload is None):
            raise ValueError("exactly one of traffic/workload must be set")
        if (
            self.workload is not None
            and not ENGINE_BACKENDS[self.backend].supports_closed_loop
        ):
            from repro.sim.backends import backends_supporting

            raise ValueError(
                f"backend {self.backend!r} cannot run closed-loop workload "
                f"scenarios; closed-loop capable backends: "
                f"{backends_supporting('closed')}"
            )
        if self.traffic is not None and not self.loads:
            raise ValueError("open-loop scenarios need a non-empty loads list")
        if self.workload is not None and self.loads:
            raise ValueError("closed-loop scenarios take no loads axis")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.stop_after_saturation < 1:
            raise ValueError("stop_after_saturation must be >= 1")
        # Axes the other engine would silently ignore are rejected —
        # they would still be hashed, so two specs describing the same
        # simulation would dedup/resume as different work.
        if self.workload is not None and self.replicas != 1:
            raise ValueError("replicas is an open-loop axis (closed loop runs once)")
        if self.workload is not None and self.stop_after_saturation != 1:
            raise ValueError("stop_after_saturation is an open-loop axis")
        if self.traffic is not None and self.max_cycles is not None:
            raise ValueError("max_cycles is a closed-loop axis (open loop uses sim "
                             "warmup/measure/drain cycles)")
        # An all-off spec is normalised to None so the two off states
        # serialize (and hash) identically.
        if self.telemetry is not None and not self.telemetry.enabled:
            self.telemetry = None
        if self.workload is not None and self.telemetry is not None:
            raise ValueError("telemetry is an open-loop axis (closed-loop "
                             "workload runs have no probe plane yet)")
        # Fault axis: a dict (JSON/grid-override form) is coerced, and
        # a spec that injects nothing is normalised to None — the
        # healthy network must always serialize (and hash) one way.
        if isinstance(self.fault, dict):
            self.fault = FaultSpec.from_dict(self.fault)
        if self.fault is not None and self.fault.is_null:
            self.fault = None
        if self.fault is not None:
            if self.workload is not None:
                raise ValueError(
                    "fault is an open-loop axis (closed-loop workload "
                    "scenarios have no degraded-run semantics yet)"
                )
            if self.routing.name not in FAULT_AWARE:
                raise ValueError(
                    f"routing {self.routing.name!r} plans over the healthy "
                    f"structure and cannot route around dead links; fault "
                    f"scenarios need one of {sorted(FAULT_AWARE)}"
                )
        self.loads = [float(x) for x in self.loads]
        # The sweep walk assumes real loads in ascending order: past a
        # saturated point a lower load would become an unsimulated fill
        # row, and NaN would write non-JSON rows.
        if not all(math.isfinite(x) and x > 0 for x in self.loads) or any(
            a >= b for a, b in zip(self.loads, self.loads[1:])
        ):
            raise ValueError(
                f"loads must be finite, > 0 and strictly ascending, got {self.loads}"
            )
        _check_sim(self.sim)

    def revalidate(self) -> None:
        """Re-run every spec's invariant checks and normalisations.

        Mutation paths that bypass construction (grid overrides
        setting e.g. ``routing.name`` directly) call this so sub-spec
        validation and seed default-filling can never be skipped.
        """
        self.topology.__post_init__()
        self.routing.__post_init__()
        if self.traffic is not None:
            self.traffic.__post_init__()
        if self.workload is not None:
            self.workload.__post_init__()
        if self.fault is not None and not isinstance(self.fault, dict):
            self.fault.__post_init__()
        self.__post_init__()

    @property
    def engine(self) -> str:
        """Dispatch target: ``"open"`` (load sweep) or ``"closed"``."""
        return "open" if self.traffic is not None else "closed"

    @property
    def num_rows(self) -> int:
        """Result rows this scenario contributes to a campaign output."""
        return len(self.loads) if self.engine == "open" else 1

    def to_dict(self) -> dict:
        data = {
            "topology": self.topology.to_dict(),
            "routing": self.routing.to_dict(),
            "sim": sim_config_to_dict(self.sim),
            "traffic": self.traffic.to_dict() if self.traffic else None,
            "workload": self.workload.to_dict() if self.workload else None,
            "loads": list(self.loads),
            "replicas": self.replicas,
            "stop_after_saturation": self.stop_after_saturation,
            "max_cycles": self.max_cycles,
            "label": self.label,
        }
        # The default backend is omitted, NOT written: a pre-backend
        # JSON spec and today's default spec describe the identical
        # simulation and must serialize (and therefore hash) equal —
        # resume identities of existing result files depend on it.
        if self.backend != "cycle":
            data["backend"] = self.backend
        # Same omit-default rule for telemetry: off (None or all-off)
        # writes nothing, so pre-telemetry scenario hashes survive.
        if self.telemetry is not None and self.telemetry.enabled:
            data["telemetry"] = self.telemetry.to_dict()
        # And for the fault axis: healthy (None, or a null spec the
        # constructor normalised away) writes nothing, so every
        # pre-fault scenario hash survives — and a faulted scenario can
        # never collide with its healthy twin in a result store.
        if self.fault is not None:
            data["fault"] = self.fault.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Rebuild a scenario; :class:`ValueError` names a missing or
        ill-typed field."""
        _object(data, "scenario")
        missing = [key for key in ("topology", "routing", "sim") if key not in data]
        if missing:
            raise ValueError(f"scenario is missing {', '.join(map(repr, missing))}")
        loads = _list(data, "loads", "scenario",
                      lambda x: _is_int(x) or isinstance(x, float), "numbers")
        return cls(
            topology=TopologySpec.from_dict(data["topology"]),
            routing=RoutingSpec.from_dict(data["routing"]),
            sim=sim_config_from_dict(data["sim"]),
            traffic=(
                TrafficSpec.from_dict(data["traffic"]) if data.get("traffic") else None
            ),
            workload=(
                WorkloadSpec.from_dict(data["workload"])
                if data.get("workload")
                else None
            ),
            loads=list(loads),
            replicas=_integer(data, "replicas", "scenario", 1),
            stop_after_saturation=_integer(
                data, "stop_after_saturation", "scenario", 1
            ),
            max_cycles=_integer(data, "max_cycles", "scenario", None, nullable=True),
            label=_string(data, "label", "scenario", ""),
            backend=_string(data, "backend", "scenario", "cycle"),
            telemetry=(
                TelemetrySpec.from_dict(data["telemetry"])
                if data.get("telemetry")
                else None
            ),
            fault=(
                FaultSpec.from_dict(data["fault"]) if data.get("fault") else None
            ),
        )

    def hash(self) -> str:
        return scenario_hash(self)


def scenario_hash(scenario: Scenario) -> str:
    """Stable 16-hex-digit identity of a scenario's serialized form.

    Two scenarios hash equal iff their ``to_dict()`` forms are equal —
    the key campaign outputs are deduplicated and resumed by.
    """
    digest = hashlib.sha256(canonical_json(scenario.to_dict()).encode())
    return digest.hexdigest()[:16]
