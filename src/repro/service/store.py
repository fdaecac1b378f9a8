"""Content-addressed result store keyed by ``scenario_hash``.

A :class:`StoreEntry` holds one scenario's campaign-independent result
payload: the main result rows (minus the ``campaign`` key, which the
runner stamps back in on replay) plus the telemetry sidecar rows.  The
store keys entries by the scenario's stable sha256 hash, so "has this
exact simulation ever run anywhere?" is one ``get()``.

Each row is encoded once: an entry is assembled from its rows'
canonical JSON texts, and a read hands the exact stored text of every
row back next to its parsed dict, so replay never re-encodes a row.
Integrity is checked on *read*, not trusted from disk: the document
around the rows must be byte-for-byte canonical, the stored payload
digest must match a sha256 of the stored payload bytes, the row schema
must be coherent (row indices, per-row scenario hash), and the
embedded spec must re-hash to the entry's key.  An entry failing any
check is moved aside into ``quarantine/`` and reported as a miss, so a
corrupted cache degrades to re-simulation, never to wrong rows.

Writes are atomic (unique temp file + ``os.replace``), so concurrent
writers of the same hash race safely: both write byte-identical
content (the payload is canonical JSON of deterministic rows) and the
last rename wins without any reader ever observing a torn file.

:data:`STORE_BACKENDS` maps backend names to constructors;
:func:`open_store` turns a path / URL / instance into a live store.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from abc import ABC, abstractmethod
from pathlib import Path

from repro.scenarios.spec import Scenario, canonical_json, scenario_hash

__all__ = [
    "STORE_BACKENDS",
    "FileResultStore",
    "MemoryResultStore",
    "ResultStore",
    "StoreEntry",
    "StoreIntegrityError",
    "open_store",
]

#: On-disk entry format version (bumped on incompatible layout change).
STORE_FORMAT = 1

_ROW_KEYS = frozenset({"scenario", "label", "engine", "row", "rows", "spec"})


class StoreIntegrityError(Exception):
    """A store entry failed validation (schema, digest, or re-hash)."""


_DECODER = json.JSONDecoder()

#: The entry document is ``canonical_json`` of ``{"format", "payload",
#: "payload_sha256", "scenario"}``, but it is written and read in
#: pieces: ``_HEAD`` + payload + ``_tail(digest, scenario)``, where the
#: payload is ``{"metrics":[<row texts>],"rows":[<row texts>]}``.
_HEAD = '{"format":%d,"payload":' % STORE_FORMAT


def _tail(digest, scenario) -> str:
    return (
        f',"payload_sha256":{canonical_json(digest)}'
        f',"scenario":{canonical_json(scenario)}}}'
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _literal(text: str, pos: int, literal: str) -> int:
    """Index past ``literal`` at ``text[pos]``; anything else is non-canonical."""
    if not text.startswith(literal, pos):
        raise StoreIntegrityError(
            f"entry is not a canonical format-{STORE_FORMAT} document"
        )
    return pos + len(literal)


def _scan_array(text: str, pos: int) -> tuple[list, list[str], int]:
    """Decode the JSON array that opens at ``text[pos]``.

    Returns the elements, their exact source texts, and the index just
    past the closing ``]``.  Elements must be separated by a bare
    comma: any whitespace makes the document non-canonical.
    """
    pos = _literal(text, pos, "[")
    values: list = []
    texts: list[str] = []
    if text.startswith("]", pos):
        return values, texts, pos + 1
    while True:
        value, end = _DECODER.raw_decode(text, pos)
        values.append(value)
        texts.append(text[pos:end])
        pos = end + 1
        if text.startswith("]", end):
            return values, texts, pos
        _literal(text, end, ",")


class StoreEntry:
    """One scenario's cached result payload.

    ``rows``/``metrics`` are payload rows — full result/telemetry rows
    minus the ``campaign`` key (see
    :func:`repro.scenarios.runner.run_campaign`), so one entry serves
    every campaign that contains the scenario.  ``row_texts`` /
    ``metric_texts`` are their ``canonical_json`` encodings, computed
    here when the caller has none; the payload, its digest and the
    entry document are assembled from these texts, and
    :meth:`from_json` returns the stored texts unchanged.
    """

    __slots__ = ("scenario", "rows", "metrics", "row_texts", "metric_texts")

    def __init__(
        self,
        scenario: str,
        rows: list[dict],
        metrics: list[dict] | None = None,
        row_texts: list[str] | None = None,
        metric_texts: list[str] | None = None,
    ):
        self.scenario = scenario
        self.rows = list(rows)
        self.metrics = list(metrics or [])
        self.row_texts = (
            list(row_texts)
            if row_texts is not None
            else [canonical_json(r) for r in self.rows]
        )
        self.metric_texts = (
            list(metric_texts)
            if metric_texts is not None
            else [canonical_json(r) for r in self.metrics]
        )

    def payload_text(self) -> str:
        """The digested content: canonical JSON of result + telemetry rows."""
        return '{"metrics":[%s],"rows":[%s]}' % (
            ",".join(self.metric_texts),
            ",".join(self.row_texts),
        )

    def digest(self) -> str:
        """sha256 hex digest of the canonical-JSON payload."""
        return _sha256(self.payload_text())

    def validate(self) -> None:
        """Raise :class:`StoreIntegrityError` unless the entry is coherent.

        Checks the row schema (indices 0..rows-1 in order, every row
        tagged with the entry's hash) and re-derives the content key
        from the embedded spec: ``scenario_hash(Scenario.from_dict(spec))``
        must equal ``self.scenario``, so an entry can never be replayed
        under a key its simulation inputs do not hash to.
        """
        if not isinstance(self.scenario, str) or not self.scenario:
            raise StoreIntegrityError("entry has no scenario hash")
        if not self.rows:
            raise StoreIntegrityError("entry has no result rows")
        for i, row in enumerate(self.rows):
            if not isinstance(row, dict) or not _ROW_KEYS <= set(row):
                raise StoreIntegrityError(f"row {i} is missing required keys")
            if row["scenario"] != self.scenario:
                raise StoreIntegrityError(f"row {i} is tagged with a foreign hash")
            if row["row"] != i or row["rows"] != len(self.rows):
                raise StoreIntegrityError(f"row {i} has inconsistent row indices")
            if "campaign" in row:
                raise StoreIntegrityError(f"row {i} carries a campaign name")
        for i, row in enumerate(self.metrics):
            if not isinstance(row, dict) or row.get("scenario") != self.scenario:
                raise StoreIntegrityError(f"metrics row {i} is not this scenario's")
            if "campaign" in row:
                raise StoreIntegrityError(f"metrics row {i} carries a campaign name")
        try:
            derived = scenario_hash(Scenario.from_dict(self.rows[0]["spec"]))
        except (TypeError, ValueError, KeyError, AttributeError, RecursionError) as exc:
            raise StoreIntegrityError(f"embedded spec does not parse: {exc}") from exc
        if derived != self.scenario:
            raise StoreIntegrityError(
                f"embedded spec hashes to {derived}, entry keyed {self.scenario}"
            )

    def to_json(self) -> str:
        """Serialize to the on-disk/on-wire entry document."""
        payload = self.payload_text()
        return _HEAD + payload + _tail(_sha256(payload), self.scenario)

    @classmethod
    def from_json(cls, text: str, expect: str | None = None) -> "StoreEntry":
        """Parse and fully validate an entry document.

        One ``raw_decode`` pass over the ``metrics`` and ``rows`` arrays
        yields every row and its exact stored text.  Everything around
        the rows must equal the canonical document byte for byte, and
        the digest is checked over the stored payload bytes, so a
        document that parses but is not what :meth:`to_json` writes is
        rejected.  ``expect`` (the hash the caller looked up) guards
        against an entry filed under the wrong name.  Raises
        :class:`StoreIntegrityError` on any parse, framing, digest,
        schema, or re-hash failure.
        """
        # Canonical JSON is pure ASCII (so text offsets are byte
        # offsets and the payload encodes back to the stored bytes).
        if not text.isascii():
            raise StoreIntegrityError("entry is not canonical JSON (non-ASCII)")
        start = _literal(text, 0, _HEAD)
        try:
            pos = _literal(text, start, '{"metrics":')
            metrics, metric_texts, pos = _scan_array(text, pos)
            pos = _literal(text, pos, ',"rows":')
            rows, row_texts, pos = _scan_array(text, pos)
            end = _literal(text, pos, "}")
            trailer = json.loads("{" + text[end + 1 :])
        except (ValueError, RecursionError) as exc:
            raise StoreIntegrityError(f"entry is not valid JSON: {exc}") from exc
        digest, scenario = trailer.get("payload_sha256"), trailer.get("scenario")
        if text[end:] != _tail(digest, scenario):
            raise StoreIntegrityError("entry trailer is not canonical")
        if expect is not None and scenario != expect:
            raise StoreIntegrityError(f"entry is keyed {scenario}, expected {expect}")
        if _sha256(text[start:end]) != digest:
            raise StoreIntegrityError("payload digest mismatch (bit rot?)")
        entry = cls(scenario, rows, metrics, row_texts, metric_texts)
        entry.validate()
        return entry


class ResultStore(ABC):
    """Backend ABC: content-addressed map from scenario hash to entry.

    ``get`` must return ``None`` (never raise, never return garbage)
    for missing *or invalid* entries — a corrupt cache degrades to a
    miss.  ``put`` must be atomic with respect to concurrent readers
    and same-hash writers.
    """

    @abstractmethod
    def get(self, scenario: str) -> StoreEntry | None:
        """Return the validated entry for a hash, or None on miss."""

    @abstractmethod
    def put(self, entry: StoreEntry) -> None:
        """Validate and persist an entry (last same-hash writer wins)."""

    def __contains__(self, scenario: str) -> bool:
        return self.get(scenario) is not None


class FileResultStore(ResultStore):
    """Filesystem-backed store: ``<root>/objects/<h[:2]>/<h>.json``.

    Entries are fanned out over 256 two-hex-digit directories.  Writes
    go to a unique sibling temp file and ``os.replace`` into place, so
    readers never see a torn entry and same-hash racers settle on one
    of two byte-identical files.  Entries that fail validation on read
    are moved to ``<root>/quarantine/`` (preserved for forensics, out
    of the lookup path) and the read reports a miss.
    """

    def __init__(self, root):
        self.root = Path(root)
        (self.root / "objects").mkdir(parents=True, exist_ok=True)

    def _object_path(self, scenario: str) -> Path:
        return self.root / "objects" / scenario[:2] / f"{scenario}.json"

    def get(self, scenario: str) -> StoreEntry | None:
        path = self._object_path(scenario)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            # The file is exactly the (pure-ASCII) document and "\n".
            if not data.endswith(b"\n"):
                raise StoreIntegrityError("entry file is truncated")
            return StoreEntry.from_json(data[:-1].decode("ascii"), expect=scenario)
        except (StoreIntegrityError, UnicodeDecodeError):
            self._quarantine(path)
            return None

    def put(self, entry: StoreEntry) -> None:
        entry.validate()
        path = self._object_path(entry.scenario)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Unique per writer (pid AND thread): same-hash racers each
        # stage their own temp file, and the atomic renames commute
        # because the staged bytes are identical canonical JSON.
        tmp = path.with_name(
            f".{entry.scenario}.{os.getpid()}-{threading.get_ident()}.tmp"
        )
        # Bytes, not text mode: get() reads back exactly document + "\n"
        # on every platform (no newline translation).
        tmp.write_bytes(entry.to_json().encode("ascii") + b"\n")
        os.replace(tmp, path)

    def _quarantine(self, path: Path) -> None:
        qdir = self.root / "quarantine"
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / path.name
        n = 0
        while target.exists():
            n += 1
            target = qdir / f"{path.name}.{n}"
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - raced with another reader
            pass

    def quarantined(self) -> list[str]:
        """Names of quarantined entry files (forensics helper)."""
        qdir = self.root / "quarantine"
        if not qdir.is_dir():
            return []
        return sorted(p.name for p in qdir.iterdir())


class MemoryResultStore(ResultStore):
    """In-process dict-backed store (tests, single-run memoization)."""

    def __init__(self, root=None):
        self._entries: dict[str, str] = {}

    def get(self, scenario: str) -> StoreEntry | None:
        text = self._entries.get(scenario)
        if text is None:
            return None
        try:
            return StoreEntry.from_json(text, expect=scenario)
        except StoreIntegrityError:
            del self._entries[scenario]
            return None

    def put(self, entry: StoreEntry) -> None:
        entry.validate()
        self._entries[entry.scenario] = entry.to_json()

    def __len__(self) -> int:
        return len(self._entries)


#: Backend registry: URL scheme -> constructor taking the root/locator.
STORE_BACKENDS: dict[str, type] = {
    "file": FileResultStore,
    "memory": MemoryResultStore,
}


def open_store(target) -> ResultStore:
    """Turn a store designator into a live :class:`ResultStore`.

    Accepts an existing store instance (returned as-is), a
    ``"<backend>:<root>"`` URL resolved through :data:`STORE_BACKENDS`
    (``"file:/var/cache/repro"``, ``"memory:"``), or a bare
    path / :class:`~pathlib.Path`, which means the file backend.
    """
    if isinstance(target, ResultStore):
        return target
    if isinstance(target, Path):
        return FileResultStore(target)
    if not isinstance(target, str):
        raise TypeError(f"cannot open a store from {type(target).__name__}")
    scheme, sep, rest = target.partition(":")
    if sep and scheme in STORE_BACKENDS:
        return STORE_BACKENDS[scheme](rest or None)
    return FileResultStore(target)
