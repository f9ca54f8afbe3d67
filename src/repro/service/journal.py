"""Crash-safe write-ahead journal for batch campaigns.

The journal is an append-only JSONL file.  Line one is a header binding
the journal to one campaign document (by sha256 of its canonical JSON);
every following line is one terminal result record wrapped with its own
checksum::

    {"journal": "repro-batch/1", "campaign_sha": "<sha256>"}
    {"record": {...}, "sha": "<sha256 of canonical record>"}
    ...

Each append is flushed **and fsynced** before the service moves on, so
after a SIGKILL the journal contains every result that was reported as
terminal, plus at most one torn tail line.  The loader tolerates exactly
that: a tail that fails to parse is discarded (the scenario simply
re-runs on resume), and any record whose checksum does not match is
dropped the same way — re-running is always safe because scenario
payloads are deterministic.

``repro batch --resume`` replays the journal, skips every intact
terminal record, and re-runs only the remainder — converging on a
results file byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Mapping

from repro.obs.metrics import get_registry
from repro.util.checksum import canonical_json, payload_checksum
from repro.util.validation import ConfigError

#: Journal format tag (header line).
JOURNAL_FORMAT = "repro-batch/1"


def _record_sha(record: Mapping) -> str:
    return payload_checksum(record)


class JournalMismatchError(ConfigError):
    """The journal on disk belongs to a different campaign document."""


class Journal:
    """Append-side handle; use :meth:`open` / :meth:`create`."""

    def __init__(self, path: Path, campaign_sha: str, fh):
        self.path = Path(path)
        self.campaign_sha = campaign_sha
        self._fh = fh

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, path: "Path | str", campaign_sha: str) -> "Journal":
        """Start a fresh journal (truncates any existing one)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "w", encoding="utf-8")
        header = {"journal": JOURNAL_FORMAT, "campaign_sha": campaign_sha}
        fh.write(canonical_json(header) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
        return cls(path, campaign_sha, fh)

    @classmethod
    def open_for_append(cls, path: "Path | str", campaign_sha: str) -> "Journal":
        """Reopen an existing journal to continue a resumed campaign.

        A torn tail (the fragment of an append cut short by a crash) is
        truncated away first, so the next record starts on a line of its
        own instead of extending the fragment into one line that
        :func:`load_journal` would stop at, hiding every later record.

        Raises :class:`JournalMismatchError` if the journal was written
        for a different campaign document — resuming someone else's
        journal would silently mix results.
        """
        path = Path(path)
        existing_sha, _ = load_journal(path)
        if existing_sha != campaign_sha:
            raise JournalMismatchError(
                f"journal {path} belongs to campaign {existing_sha[:12]}..., "
                f"not {campaign_sha[:12]}...; refusing to resume"
            )
        with open(path, "rb+") as raw:
            intact = raw.read().rfind(b"\n") + 1
            if intact < raw.tell():
                raw.truncate(intact)
                raw.flush()
                os.fsync(raw.fileno())
        fh = open(path, "a", encoding="utf-8")
        return cls(path, campaign_sha, fh)

    # -- appending -----------------------------------------------------------

    def append(self, record: Mapping) -> None:
        """Durably journal one terminal result record."""
        line = canonical_json({"record": dict(record), "sha": _record_sha(record)})
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        get_registry().counter("service.journal.appended").inc()

    def close(self) -> None:
        """Close the underlying file; further appends are an error."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def load_journal(path: "Path | str") -> "tuple[str, dict[str, dict]]":
    """Replay a journal: ``(campaign_sha, {request_id: record})``.

    Tolerates a torn tail (stops there) and drops checksum-mismatched
    records; both are counted in ``service.journal.dropped``.
    """
    path = Path(path)
    registry = get_registry()
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"journal {path} has an unreadable header") from exc
        if not isinstance(header, dict) or header.get("journal") != JOURNAL_FORMAT:
            raise ConfigError(
                f"journal {path} is not a {JOURNAL_FORMAT} journal"
            )
        campaign_sha = str(header.get("campaign_sha", ""))
        records: "dict[str, dict]" = {}
        for line in fh:
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                # Torn tail from a crash mid-append: everything before it
                # is intact (appends are fsynced in order), so stop here.
                registry.counter("service.journal.dropped").inc()
                break
            record = entry.get("record") if isinstance(entry, dict) else None
            if not isinstance(record, dict) or entry.get("sha") != _record_sha(record):
                registry.counter("service.journal.dropped").inc()
                continue
            rid = record.get("id")
            if isinstance(rid, str) and rid:
                records[rid] = record
    return campaign_sha, records
