"""Campaign-row ingestion: JSONL -> tidy, schema-checked tables (Layer 6).

The campaign runner (:mod:`repro.scenarios.runner`) streams
self-describing JSON rows; this module is the read side.  A
:class:`RowTable` wraps a list of validated row dicts with the
group/filter helpers the figure renderers consume, plus the statistical
helpers a reproduction report needs (mean ± confidence interval over
replica groups, saturation-point detection on latency-vs-load curves).

Ingestion is deliberately forgiving — the write side can be killed
mid-row and old files must stay loadable by newer code:

- a torn (half-written) trailing line is skipped and counted, as is
  any line that is not valid UTF-8 (files are split into lines as
  bytes and each line is decoded on its own),
- rows from several campaigns may share one file (``campaigns()``
  enumerates them; ``filter(campaign=...)`` selects one),
- unknown extra fields are preserved verbatim (forward compatibility),
- rows missing required schema fields are quarantined in
  ``table.invalid`` instead of poisoning the table (``strict=True``
  raises instead).

Determinism contract: every accessor iterates in row order (the order
of the underlying file), so any figure or summary derived from a
``RowTable`` is a pure function of the file bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

#: Fields every campaign row carries (see DESIGN.md "Row schema").
COMMON_FIELDS = ("campaign", "scenario", "label", "engine", "row", "rows", "spec")
#: Fields specific to open-loop (latency-vs-load) rows.
OPEN_FIELDS = ("load", "latency", "accepted", "saturated")
#: Fields specific to closed-loop (workload completion) rows.
CLOSED_FIELDS = (
    "workload", "num_messages", "completed_messages", "finished",
    "makespan", "cycles", "delivered_flits", "avg_message_latency",
    "p99_message_latency", "avg_packet_latency", "flits_per_cycle",
)
#: Fields every telemetry metrics row carries (the campaign runner's
#: ``<out>.metrics.jsonl`` sidecar; probe payloads beyond these are
#: optional — a row holds only what its scenario's probes recorded).
METRICS_FIELDS = ("campaign", "scenario", "label", "row", "rows", "load")


def _is_number(value) -> bool:
    # json.loads admits NaN/Infinity, which would crash axis-range
    # computation downstream — quarantine them with the other type
    # violations.
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _finite_numbers(values: list) -> bool:
    """True when every element is a finite int or float (never bool).

    The :func:`_is_number` test in two C-level passes: a paper-scale
    sidecar holds ~600k channel loads, and calling ``_is_number`` per
    element costs about four times as much.
    """
    if not set(map(type, values)) <= {int, float}:
        return False
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # an int too large for a float
        return False


def _row_error(row) -> str | None:
    """Schema check for one decoded JSONL object; None when valid.

    Types are checked alongside presence — a hand-edited or
    foreign-tool row with e.g. a string ``spec`` must be quarantined
    here, not crash deep inside provenance or figure rendering.
    """
    if not isinstance(row, dict):
        return "not a JSON object"
    missing = [k for k in COMMON_FIELDS if k not in row]
    if missing:
        return f"missing fields {missing}"
    if row["engine"] not in ("open", "closed"):
        return f"unknown engine {row['engine']!r}"
    want = OPEN_FIELDS if row["engine"] == "open" else CLOSED_FIELDS
    missing = [k for k in want if k not in row]
    if missing:
        return f"missing {row['engine']}-loop fields {missing}"
    if not isinstance(row["row"], int) or not isinstance(row["rows"], int):
        return "row/rows positions must be integers"
    if not 0 <= row["row"] < row["rows"]:
        return f"row index {row['row']} outside 0..{row['rows'] - 1}"
    if not isinstance(row["spec"], dict):
        return "spec must be an object"
    if row["engine"] == "open":
        if not _is_number(row["load"]):
            return "load must be a number"
        bad = [
            k for k in ("latency", "accepted")
            if row[k] is not None and not _is_number(row[k])
        ]
        if bad:
            return f"{bad} must be numbers or null"
    else:
        bad = [
            k for k in ("makespan", "cycles", "num_messages")
            if not _is_number(row[k])
        ]
        if bad:
            return f"{bad} must be numbers"
    return None


def _ingest(
    table, path: Path, row_error: Callable, campaign: str | None, strict=False
) -> None:
    """Append one JSONL file's valid rows to ``table`` (see module doc).

    The one tolerant line loop of both tables: a line that is not UTF-8
    or not JSON, nesting past the decoder's limit included, counts as
    torn; a row ``row_error`` faults is quarantined in ``invalid``.
    ``strict=True`` raises :class:`ValueError` on the first of either.
    """
    for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            row = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError):
            if strict:
                raise ValueError(
                    f"{path}:{lineno}: not valid UTF-8 JSON (torn line?)"
                ) from None
            table.torn_lines += 1
            continue
        error = row_error(row)
        if error is not None:
            if strict:
                raise ValueError(f"{path}:{lineno}: {error}")
            table.invalid.append((lineno, error))
            continue
        if campaign is None or row["campaign"] == campaign:
            table.rows.append(row)


@dataclass
class Curve:
    """One open-loop latency-vs-load sweep, in ascending row order.

    ``fidelity`` is the engine backend that produced the rows
    (``"cycle"`` or ``"flow"``); rows from pre-backend files carry no
    fidelity tag and default to cycle-accurate.
    """

    label: str
    scenario: str
    loads: list[float]
    latency: list[float | None]
    accepted: list[float | None]
    saturated: list[bool]
    spec: dict
    fidelity: str = "cycle"

    def __len__(self) -> int:
        return len(self.loads)

    @property
    def low_load_latency(self) -> float | None:
        """The latency at the lowest load that measured one, else ``None``."""
        return next((v for v in self.latency if v is not None), None)

    @property
    def peak_accepted(self) -> float | None:
        """The largest accepted load measured along the sweep; ``None``
        when no point measured one (a disconnected fault sample)."""
        return max((a for a in self.accepted if a is not None), default=None)


@dataclass
class RowTable:
    """Validated campaign rows plus ingestion bookkeeping.

    ``rows`` hold every schema-valid row in file order; ``invalid``
    holds ``(line_number, reason)`` pairs for quarantined rows;
    ``torn_lines`` counts lines that were not parseable JSON at all
    (a kill mid-write leaves exactly one, at the tail).  ``meta`` is
    the campaign runner's provenance sidecar (``<out>.meta.json``)
    when one sits next to the source file.
    """

    rows: list[dict] = field(default_factory=list)
    source: str | None = None
    meta: dict | None = None
    invalid: list[tuple[int, str]] = field(default_factory=list)
    torn_lines: int = 0

    # -- ingestion ---------------------------------------------------------

    @classmethod
    def from_jsonl(
        cls, path, campaign: str | None = None, strict: bool = False
    ) -> "RowTable":
        """Load one campaign JSONL file (tolerantly, see module doc).

        ``campaign`` keeps only that campaign's rows; ``strict=True``
        raises :class:`ValueError` on the first torn or invalid line
        instead of quarantining it.
        """
        path = Path(path)
        table = cls(source=str(path))
        _ingest(table, path, _row_error, campaign, strict)
        meta_path = path.with_name(path.name + ".meta.json")
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
            except ValueError:
                meta = None
            # A sidecar that is not a JSON object carries no usable
            # provenance; treat it like a missing one.
            table.meta = meta if isinstance(meta, dict) else None
        return table

    @classmethod
    def from_rows(cls, rows: Iterable[dict], strict: bool = True) -> "RowTable":
        """Wrap in-memory rows (e.g. ``CampaignReport.rows``)."""
        table = cls()
        for i, row in enumerate(rows):
            error = _row_error(row)
            if error is not None:
                if strict:
                    raise ValueError(f"row {i}: {error}")
                table.invalid.append((i, error))
                continue
            table.rows.append(row)
        return table

    @staticmethod
    def concat(tables: Sequence["RowTable"]) -> "RowTable":
        """Concatenate tables in order (sources joined, metas dropped)."""
        out = RowTable(
            source=" + ".join(t.source for t in tables if t.source) or None
        )
        for t in tables:
            out.rows.extend(t.rows)
            out.invalid.extend(t.invalid)
            out.torn_lines += t.torn_lines
        return out

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    # -- selection ---------------------------------------------------------

    def _view(self, rows: list[dict]) -> "RowTable":
        """A sub-table keeping this table's file-level bookkeeping.

        Source, meta, and the data-quality counters all describe the
        originating file, so every derived view carries them — code
        that filters before checking ``torn_lines`` must still see
        the damage.
        """
        return RowTable(
            rows=rows,
            source=self.source,
            meta=self.meta,
            invalid=list(self.invalid),
            torn_lines=self.torn_lines,
        )

    def filter(self, **field_values) -> "RowTable":
        """Rows whose fields equal every given value (row order kept)."""
        return self._view(
            [
                r
                for r in self.rows
                if all(r.get(k) == v for k, v in field_values.items())
            ]
        )

    def where(self, pred: Callable[[dict], bool]) -> "RowTable":
        """Rows for which ``pred`` is true (row order kept)."""
        return self._view([r for r in self.rows if pred(r)])

    def open_rows(self) -> "RowTable":
        return self.filter(engine="open")

    def closed_rows(self) -> "RowTable":
        return self.filter(engine="closed")

    def group_by(self, *fields: str) -> dict:
        """Group rows by field tuple, first-seen order.

        Keys are scalars for one field, tuples for several; values are
        sub-:class:`RowTable` views.
        """
        groups: dict = {}
        for row in self.rows:
            key = (
                row.get(fields[0])
                if len(fields) == 1
                else tuple(row.get(f) for f in fields)
            )
            if key not in groups:  # setdefault would build a view per row
                groups[key] = self._view([])
            groups[key].rows.append(row)
        return groups

    def column(self, name: str, default=None) -> list:
        """One field across all rows, in row order."""
        return [r.get(name, default) for r in self.rows]

    def campaigns(self) -> list[str]:
        """Campaign names present, in first-seen order."""
        return list(dict.fromkeys(r["campaign"] for r in self.rows))

    def labels(self) -> list[str]:
        """Scenario labels present, in first-seen order."""
        return list(dict.fromkeys(r["label"] for r in self.rows))

    # -- derived structures ------------------------------------------------

    def curves(self) -> list[Curve]:
        """Open-loop rows as per-scenario sweeps, sorted by row index.

        Partial sweeps (an interrupted file) yield partial curves;
        duplicated row indices keep the last occurrence, matching the
        resume semantics of the writer.
        """
        curves: list[Curve] = []
        for (h, label), sub in self.open_rows().group_by("scenario", "label").items():
            by_index = {r["row"]: r for r in sub.rows}
            ordered = [by_index[i] for i in sorted(by_index)]
            curves.append(
                Curve(
                    label=label,
                    scenario=h,
                    loads=[r["load"] for r in ordered],
                    latency=[r["latency"] for r in ordered],
                    accepted=[r["accepted"] for r in ordered],
                    saturated=[bool(r["saturated"]) for r in ordered],
                    spec=ordered[0]["spec"],
                    fidelity=ordered[0].get("fidelity", "cycle"),
                )
            )
        return curves


# -- telemetry metrics sidecar ---------------------------------------------


def metrics_sidecar(path) -> Path:
    """The telemetry metrics sidecar sitting next to a rows file.

    Mirrors the write side's ``metrics_path_for``: the campaign runner
    emits ``<out>.metrics.jsonl`` only when at least one probe fired,
    so the returned path may legitimately not exist.
    """
    path = Path(path)
    return path.with_name(path.name + ".metrics.jsonl")


def _metrics_row_error(row) -> str | None:
    """Schema check for one decoded metrics row; None when valid."""
    if not isinstance(row, dict):
        return "not a JSON object"
    missing = [k for k in METRICS_FIELDS if k not in row]
    if missing:
        return f"missing fields {missing}"
    if not isinstance(row["row"], int) or not isinstance(row["rows"], int):
        return "row/rows positions must be integers"
    if not 0 <= row["row"] < row["rows"]:
        return f"row index {row['row']} outside 0..{row['rows'] - 1}"
    if not _is_number(row["load"]):
        return "load must be a number"
    for key in ("latency_hist", "channel_flits", "channel_load", "max_queue"):
        if key in row and not isinstance(row[key], list):
            return f"{key} must be an array"
    # The channel-load figures draw these values: a null, string, bool
    # or NaN/Infinity must quarantine the row, not sink the report.
    if "channel_load" in row and not _finite_numbers(row["channel_load"]):
        return "channel_load must hold finite numbers"
    return None


@dataclass
class MetricsTable:
    """Validated telemetry metrics rows, same tolerance as RowTable.

    One row per telemetry-carrying load point, in file order; the
    payload fields are exactly what
    :meth:`repro.sim.telemetry.TelemetryResult.to_dict` serialized.
    Torn and schema-invalid lines are quarantined, never fatal — a
    damaged sidecar degrades the channel-load figures, it must not
    sink the whole report.
    """

    rows: list[dict] = field(default_factory=list)
    source: str | None = None
    invalid: list[tuple[int, str]] = field(default_factory=list)
    torn_lines: int = 0

    @classmethod
    def from_jsonl(cls, path, campaign: str | None = None) -> "MetricsTable":
        """Load one metrics sidecar (missing file -> empty table)."""
        path = Path(path)
        table = cls(source=str(path))
        if path.exists():
            _ingest(table, path, _metrics_row_error, campaign)
        return table

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.rows)

    def filter(self, **field_values) -> "MetricsTable":
        """Rows whose fields equal every given value (row order kept)."""
        return MetricsTable(
            rows=[
                r
                for r in self.rows
                if all(r.get(k) == v for k, v in field_values.items())
            ],
            source=self.source,
            invalid=list(self.invalid),
            torn_lines=self.torn_lines,
        )

    def campaigns(self) -> list[str]:
        """Campaign names present, in first-seen order."""
        return list(dict.fromkeys(r["campaign"] for r in self.rows))

    def labels(self) -> list[str]:
        """Scenario labels present, in first-seen order."""
        return list(dict.fromkeys(r["label"] for r in self.rows))

    def channel_loads(self) -> dict[str, list[float]]:
        """Per-label channel-load vector at the highest measured load.

        The Fig 9 selection rule: each label contributes the
        ``channel_load`` array of its highest-``load`` row (ties keep
        the later row, matching resume semantics).  Labels whose rows
        carry no ``channel_load`` probe are omitted.
        """
        best: dict[str, dict] = {}
        for r in self.rows:
            if "channel_load" not in r:
                continue
            cur = best.get(r["label"])
            if cur is None or r["load"] >= cur["load"]:
                best[r["label"]] = r
        return {
            label: [float(v) for v in row["channel_load"]]
            for label, row in best.items()
        }


# -- aggregation -----------------------------------------------------------


def mean_ci(values: Sequence[float], confidence: float = 0.95) -> tuple[float, float]:
    """Sample mean and confidence-interval half-width.

    Uses Student's t critical values through scipy when available and
    the normal approximation otherwise; a single observation has zero
    half-width.  Deterministic, NaN-free for non-empty input.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("mean_ci needs at least one value")
    n = len(vals)
    mean = sum(vals) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in vals) / (n - 1)
    sem = math.sqrt(var / n)
    try:
        from scipy import stats

        crit = float(stats.t.ppf((1.0 + confidence) / 2.0, n - 1))
    except ImportError:  # pragma: no cover - scipy is a runtime dep
        from statistics import NormalDist

        crit = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    return mean, crit * sem


def summarize(
    table: RowTable,
    by: Sequence[str] = ("label", "load"),
    value: str = "latency",
    confidence: float = 0.95,
) -> list[dict]:
    """Mean ± CI of ``value`` per ``by`` group (replica aggregation).

    Rows whose value is ``None`` (saturated latency, serialized NaN)
    are dropped from their group; groups left empty are omitted.  The
    output rows carry the group fields plus ``mean``/``ci``/``n`` and
    appear in first-seen group order.
    """
    out = []
    for key, sub in table.group_by(*by).items():
        vals = [v for v in sub.column(value) if v is not None]
        if not vals:
            continue
        mean, ci = mean_ci(vals, confidence)
        keys = (key,) if len(by) == 1 else key
        row = dict(zip(by, keys))
        row.update(mean=mean, ci=ci, n=len(vals))
        out.append(row)
    return out


def saturation_point(curve: Curve, knee_factor: float = 3.0) -> float | None:
    """The load at which a latency-vs-load sweep saturates.

    Prefers the simulator's explicit flag (first load marked
    saturated); when no point is flagged, falls back to knee
    detection — the first load whose latency exceeds ``knee_factor``
    times the lowest-load finite latency.  ``None`` means the sweep
    never saturates over its measured range.
    """
    for load, sat in zip(curve.loads, curve.saturated):
        if sat:
            return load
    finite = [(ld, lat) for ld, lat in zip(curve.loads, curve.latency)
              if lat is not None]
    if len(finite) >= 2:
        base = finite[0][1]
        if base > 0:
            for load, lat in finite[1:]:
                if lat > knee_factor * base:
                    return load
    return None


def fault_sweeps(table: RowTable) -> dict[str, list[tuple[float, Curve]]]:
    """A dead-link sweep's curves per protocol, by ascending fraction.

    Labels ``PROTOCOL/f=FRACTION`` (the ``fault_degradation``
    convention) group by protocol; each curve's fraction is its spec's
    ``fault.link_fraction``, 0 for the healthy baseline.
    """
    out: dict[str, list[tuple[float, Curve]]] = {}
    for c in table.curves():
        frac = float(((c.spec or {}).get("fault") or {}).get("link_fraction", 0.0))
        out.setdefault(c.label.split("/f=", 1)[0], []).append((frac, c))
    for points in out.values():
        points.sort(key=lambda p: p[0])
    return out


# -- provenance ------------------------------------------------------------


def _spec_seeds(spec: dict) -> dict:
    """Every randomness source a scenario spec pins, by layer.

    Tolerant of partial specs (sub-sections may be null or absent in
    foreign rows); only well-formed seed fields are reported.
    """
    def sub(name) -> dict:
        value = spec.get(name)
        return value if isinstance(value, dict) else {}

    seeds = {}
    if sub("sim").get("seed") is not None:
        seeds["sim"] = sub("sim")["seed"]
    if sub("topology").get("seed") is not None:
        seeds["topology"] = sub("topology")["seed"]
    params = sub("routing").get("params")
    if isinstance(params, dict) and params.get("seed") is not None:
        seeds["routing"] = params["seed"]
    if sub("traffic").get("seed") is not None:
        seeds["traffic"] = sub("traffic")["seed"]
    return seeds


def provenance(table: RowTable) -> list[dict]:
    """Per-scenario provenance records, in first-seen order.

    Each record pins one scenario: its hash (the resume/dedup
    identity), label, engine, fidelity (the backend that produced the
    rows; pre-backend files default to cycle-accurate), expected row
    count, and every seed its spec carries.  This is the block
    REPORT.md prints under each figure.
    """
    out = []
    for (h, label), sub in table.group_by("scenario", "label").items():
        first = sub.rows[0]
        out.append(
            {
                "scenario": h,
                "label": label,
                "campaign": first["campaign"],
                "engine": first["engine"],
                "fidelity": first.get("fidelity", "cycle"),
                "rows": first["rows"],
                "seeds": _spec_seeds(first["spec"]),
            }
        )
    return out
