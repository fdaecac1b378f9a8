"""Campaigns: ordered scenario lists with grid expansion (Layer 5).

A :class:`Campaign` is the unit the runner executes and the unit that
persists: ``save()``/``load()`` round-trip through a JSON file that can
be committed next to its results and replayed with
``python -m repro.experiments campaign <file.json>``.

:meth:`Campaign.from_grid` expands a parameter grid — a base scenario
plus per-axis override lists keyed by dotted paths into the spec
(``"routing"``, ``"sim.buffer_per_port"``, ``"topology.params.q"``,
``"traffic.seed"``, ...) — into the deduplicated cartesian product,
which is how the paper's {topology × routing × traffic × load × seed}
evaluation grids are written down.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.scenarios.spec import Scenario, scenario_hash


def _set_path(target, parts: list[str], value):
    """Set a dotted path, rebuilding frozen dataclasses copy-on-write.

    Returns the (possibly replaced) target so parents can write the
    new value back — ``SimConfig`` is frozen, so ``sim.buffer_per_port``
    axes go through :func:`dataclasses.replace`.
    """
    head = parts[0]
    if not isinstance(target, dict) and not hasattr(target, head):
        raise AttributeError(f"scenario has no field {head!r}")
    if len(parts) == 1:
        new_value = value
    else:
        child = target[head] if isinstance(target, dict) else getattr(target, head)
        new_value = _set_path(child, parts[1:], value)
        if new_value is child:
            return target
    if isinstance(target, dict):
        target[head] = new_value
        return target
    try:
        setattr(target, head, new_value)
        return target
    except dataclasses.FrozenInstanceError:
        return dataclasses.replace(target, **{head: new_value})


def _apply_override(scenario: Scenario, path: str, value) -> None:
    """Set a dotted-path field on a scenario (specs or dict params)."""
    if _set_path(scenario, path.split("."), value) is not scenario:
        raise AttributeError(f"cannot replace the scenario itself via {path!r}")


@dataclass
class Campaign:
    """A named, ordered list of scenarios (duplicates allowed until
    :meth:`dedup`; the runner always deduplicates before executing)."""

    name: str
    scenarios: list[Scenario] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)

    @property
    def num_rows(self) -> int:
        """Total result rows a complete run of this campaign emits."""
        return sum(s.num_rows for s in self.scenarios)

    def dedup(self) -> "Campaign":
        """Order-preserving copy with duplicate scenario hashes dropped."""
        seen: set[str] = set()
        unique: list[Scenario] = []
        for s in self.scenarios:
            h = scenario_hash(s)
            if h not in seen:
                seen.add(h)
                unique.append(s)
        return Campaign(self.name, unique)

    @classmethod
    def from_grid(
        cls,
        name: str,
        base: Scenario,
        axes: Mapping[str, Sequence],
        label: Callable[[Scenario], str] | None = None,
    ) -> "Campaign":
        """Cartesian product of per-axis overrides applied to ``base``.

        Axis keys are dotted paths; values replace the field wholesale
        (spec objects included — pass ``RoutingSpec`` instances for a
        ``"routing"`` axis).  Attribute segments must name existing
        fields; a path ending in a ``params`` dict may introduce a new
        key (e.g. a constructor kwarg the base omitted) — typos in
        such keys only surface when the spec resolves.  Later axes
        vary fastest.  ``label`` recomputes each expanded scenario's
        label; the result is deduplicated by scenario hash.
        """
        keys = list(axes)
        scenarios: list[Scenario] = []
        for combo in itertools.product(*(axes[k] for k in keys)):
            scenario = copy.deepcopy(base)
            for key, value in zip(keys, combo):
                _apply_override(scenario, key, copy.deepcopy(value))
            if label is not None:
                scenario.label = label(scenario)
            # Re-run every invariant check (sub-specs included — an
            # override may have reached inside one) and seed fills.
            scenario.revalidate()
            scenarios.append(scenario)
        return cls(name, scenarios).dedup()

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Campaign":
        """Rebuild a campaign; :class:`ValueError` for a malformed document."""
        if not isinstance(data, dict):
            raise ValueError("a campaign must be a JSON object")
        if not isinstance(data.get("name"), str):
            raise ValueError("campaign 'name' must be a string")
        scenarios = data.get("scenarios")
        if not isinstance(scenarios, list) or not all(
            isinstance(d, dict) for d in scenarios
        ):
            raise ValueError("campaign 'scenarios' must be a list of JSON objects")
        return cls(
            name=data["name"],
            scenarios=[Scenario.from_dict(d) for d in scenarios],
        )

    def save(self, path) -> Path:
        """Write the campaign as an indented JSON file (VCS-friendly)."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path) -> "Campaign":
        return cls.from_dict(json.loads(Path(path).read_text()))
