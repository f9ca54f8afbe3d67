"""Resumable batch campaigns (``repro batch``).

A campaign file is a JSON document::

    {
      "campaign": "campaign/1",
      "name": "nightly-sweep",
      "defaults": {"deadline_s": 30.0},
      "scenarios": [
        {"id": "p2p-64", "kind": "p2p", "params": {"nnodes": 64}},
        ...
      ]
    }

:func:`run_batch` executes every scenario, journaling each terminal
result to a write-ahead journal (:mod:`repro.service.journal`) as it
lands, and finally writes a ``campaign-results/1`` document — results
sorted by id, canonical formatting, atomic temp+rename write.
Deadline-free transfer scenarios are simulated together in waves of
``_WAVE`` through the batched engine, and each wave's records are
journaled before the next wave is computed; every other scenario, and
any wave whose batched call fails, runs through a
:class:`ScenarioService`.

Because scenario payloads are deterministic and the journal is fsynced
record-by-record, a campaign SIGKILLed at any point can be rerun with
``resume=True``: intact journal records are trusted (after checksum
re-verification), only the remainder re-runs, and the final results
file is **byte-identical** to an uninterrupted run's.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.obs.metrics import get_registry
from repro.service.journal import Journal, load_journal
from repro.service.request import (
    COMPLETED,
    TERMINAL_STATUSES,
    ScenarioRequest,
    ScenarioResult,
    canonical_json,
    payload_checksum,
)
from repro.service.service import ScenarioService, ServiceConfig
from repro.util.atomicio import atomic_write_json
from repro.util.log import get_logger
from repro.util.validation import ConfigError

log = get_logger(__name__)

#: Campaign / results format tags.
CAMPAIGN_FORMAT = "campaign/1"
RESULTS_FORMAT = "campaign-results/1"

#: Deadline-free transfer scenarios per batched call.  Each wave's
#: records are journaled before the next wave is computed; each wave
#: also restarts the batched engine's lockstep rounds, a fixed cost per
#: call, so waves stay in the hundreds.
_WAVE = 360


def campaign_sha(doc: Mapping[str, Any]) -> str:
    """Identity of a campaign document: sha256 of its canonical JSON."""
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def load_campaign(path: "Path | str") -> "tuple[dict, list[ScenarioRequest], str]":
    """Load and validate a campaign file → ``(doc, requests, sha)``."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"campaign file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"campaign file {path} is not valid JSON: {exc}") from exc
    return parse_campaign(doc, source=str(path))


def parse_campaign(
    doc: Any, *, source: str = "<campaign>"
) -> "tuple[dict, list[ScenarioRequest], str]":
    """Validate a campaign document; return (doc, requests, campaign_sha).

    Defaults (e.g. ``deadline_s``) are merged into scenario entries that
    do not set their own; duplicate scenario ids are rejected.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: campaign must be a JSON object")
    if doc.get("campaign") != CAMPAIGN_FORMAT:
        raise ConfigError(
            f"{source}: expected \"campaign\": \"{CAMPAIGN_FORMAT}\", "
            f"got {doc.get('campaign')!r}"
        )
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        raise ConfigError(f"{source}: campaign needs a non-empty scenarios list")
    defaults = doc.get("defaults", {})
    if not isinstance(defaults, Mapping):
        raise ConfigError(f"{source}: defaults must be a JSON object")
    default_deadline = defaults.get("deadline_s")
    requests: "list[ScenarioRequest]" = []
    seen: "set[str]" = set()
    for i, entry in enumerate(scenarios):
        if isinstance(entry, Mapping) and "deadline_s" not in entry and (
            default_deadline is not None
        ):
            entry = dict(entry, deadline_s=default_deadline)
        try:
            req = ScenarioRequest.from_dict(entry)
        except ConfigError as exc:
            raise ConfigError(f"{source}: scenario #{i}: {exc}") from exc
        if req.id in seen:
            raise ConfigError(f"{source}: duplicate scenario id {req.id!r}")
        seen.add(req.id)
        requests.append(req)
    return doc, requests, campaign_sha(doc)


def make_demo_campaign(
    n: int = 12,
    *,
    nnodes: int = 32,
    deadline_s: "float | None" = None,
    name: str = "demo",
) -> dict:
    """A small deterministic mixed-kind campaign (CLI demo and tests)."""
    if n < 1:
        raise ConfigError(f"campaign size must be >= 1, got {n}")
    kinds = ("p2p", "group", "fanin", "spin")
    scenarios = []
    for i in range(n):
        kind = kinds[i % len(kinds)]
        entry: dict = {"id": f"{name}-{i:04d}", "kind": kind}
        if kind == "spin":
            entry["params"] = {"duration_s": 0.002 * (1 + i % 3)}
        else:
            entry["params"] = {"nnodes": nnodes, "nbytes": (1 + i % 4) << 20}
        scenarios.append(entry)
    doc: dict = {"campaign": CAMPAIGN_FORMAT, "name": name, "scenarios": scenarios}
    if deadline_s is not None:
        doc["defaults"] = {"deadline_s": deadline_s}
    return doc


class _JournalSink:
    """Thread-safe journal appender used as the service's on_result."""

    def __init__(self, journal: Journal):
        self._journal = journal
        self._lock = threading.Lock()

    def __call__(self, result) -> None:
        with self._lock:
            self._journal.append(result.record())


def _verified(record: Mapping[str, Any]) -> bool:
    """Is a replayed journal record internally consistent?"""
    if record.get("status") not in TERMINAL_STATUSES:
        return False
    if record.get("status") == COMPLETED:
        payload = record.get("payload")
        return (
            payload is not None
            and record.get("checksum") == payload_checksum(payload)
        )
    return True


def _batchable(req: ScenarioRequest) -> bool:
    """Does this request take the batched-simulate fast path?

    Transfer kinds with no deadline do: the batch computes exactly the
    payload a worker would (both call the same function), and there is
    no wall-clock budget the batch could blow for a neighbour.
    Everything else keeps the full service treatment — admission,
    breakers, cancellation.
    """
    return req.kind in ("p2p", "group", "fanin") and req.deadline_s is None


def _run_wave(wave: "list[ScenarioRequest]", journal: Journal) -> "dict[str, dict]":
    """Simulate one wave of batchable scenarios; journal and return its records.

    If the batched call raises (bad params, planner error), it returns
    no records, so the service runs the wave's scenarios and reports the
    failure per request.
    """
    from repro.service.scenarios import run_transfer_kinds_batched

    try:
        payloads = run_transfer_kinds_batched([(r.kind, r.params) for r in wave])
    except Exception as exc:
        get_registry().counter("service.batch.fast_path_fallback").inc(len(wave))
        log.warning(
            "batched fast path failed (%s: %s); "
            "%d scenario(s) go through the service",
            type(exc).__name__, exc, len(wave),
        )
        return {}
    get_registry().counter("service.batch.fast_path").inc(len(wave))
    records = {}
    for req, payload in zip(wave, payloads):
        record = ScenarioResult(
            id=req.id, kind=req.kind, status=COMPLETED, payload=payload
        ).record()
        journal.append(record)
        records[req.id] = record
    return records


def run_batch(
    campaign_path: "Path | str",
    out_path: "Path | str",
    *,
    journal_path: "Path | str | None" = None,
    resume: bool = False,
    config: "ServiceConfig | None" = None,
    progress: "Callable[[str], None] | None" = None,
) -> dict:
    """Run (or resume) a campaign; returns a summary dict.

    The journal defaults to ``<out>.journal`` next to the results file.
    Without ``resume``, any existing journal is truncated and the whole
    campaign runs; with it, intact journaled results are reused.

    Deadline-free transfer scenarios are simulated together through
    :func:`repro.service.scenarios.run_transfer_kinds_batched`, in
    campaign order and in waves of ``_WAVE`` — one batched call per
    machine size per wave — instead of one service request each.  Each wave's
    records are journaled (one fsync'd append per record) before the
    next wave is computed, so the first records are durable after one
    wave rather than after the whole campaign, and planning inputs,
    flow programs and flow results live one wave at a time.  A worker
    runs the same function on one item, so payloads (and hence journal
    records and the results file) are the ones the service would
    produce.  Everything else goes through the service.  If a wave's
    batched call raises, that wave's scenarios go through the service
    too, which reports any failure per request; the
    ``service.batch.fast_path_fallback`` counter and a one-line log
    warning surface that.
    """
    out_path = Path(out_path)
    doc, requests, sha = load_campaign(campaign_path)
    journal_path = (
        Path(journal_path)
        if journal_path is not None
        else out_path.with_name(out_path.name + ".journal")
    )
    done: "dict[str, dict]" = {}
    if resume and journal_path.exists():
        journal_sha, records = load_journal(journal_path)
        if journal_sha != sha:
            raise ConfigError(
                f"journal {journal_path} belongs to a different campaign "
                f"({journal_sha[:12]}... != {sha[:12]}...); rerun without --resume"
            )
        wanted = {r.id for r in requests}
        for rid, record in records.items():
            if rid in wanted and _verified(record):
                done[rid] = record
            else:
                get_registry().counter("service.journal.dropped").inc()
        journal = Journal.open_for_append(journal_path, sha)
    else:
        journal = Journal.create(journal_path, sha)
    todo = [r for r in requests if r.id not in done]
    if progress is not None:
        progress(
            f"campaign {doc.get('name', '?')!r}: {len(requests)} scenarios, "
            f"{len(done)} journaled, {len(todo)} to run"
        )
    merged: "dict[str, dict]" = dict(done)
    try:
        fast = [r for r in todo if _batchable(r)]
        for start in range(0, len(fast), _WAVE):
            merged.update(_run_wave(fast[start:start + _WAVE], journal))
        serial = [r for r in todo if r.id not in merged]
        if serial:
            with ScenarioService(config, on_result=_JournalSink(journal)) as svc:
                for req in serial:
                    svc.submit(req, block=True)
                for req in serial:
                    merged[req.id] = svc.result(req.id).record()
    finally:
        journal.close()
    results = [merged[r.id] for r in sorted(requests, key=lambda r: r.id)]
    counts = {status: 0 for status in TERMINAL_STATUSES}
    for record in results:
        counts[record["status"]] += 1
    out_doc = {
        "format": RESULTS_FORMAT,
        "name": doc.get("name"),
        "campaign_sha": sha,
        "counts": counts,
        "results": results,
    }
    atomic_write_json(out_path, out_doc)
    summary = {
        "total": len(requests),
        "resumed": len(done),
        "ran": len(todo),
        "counts": counts,
        "out": str(out_path),
        "journal": str(journal_path),
        "campaign_sha": sha,
    }
    if progress is not None:
        progress(
            f"wrote {out_path} ({counts[COMPLETED]}/{len(requests)} completed)"
        )
    return summary
