"""Live-service chaos campaigns (``repro chaos --service``).

Where :mod:`repro.resilience.chaos` drives the *executor* through fault
grids, this module chaos-tests the **whole service stack**: it boots a
real :class:`~repro.service.service.ScenarioService`, drives it with the
PR 6 load generator (open loop — overload is offered, not negotiated),
and injects three kinds of trouble from one seeded schedule:

* **worker crashes** (``inject="crash"``) — the watchdog must restart
  the worker and eventually quarantine the poison request;
* **worker hangs** (``inject="hang"``) — the watchdog's hang timeout
  must hard-kill and fail the request;
* **link-fault traces** (``fault_seed`` on transfer requests) — the
  resilient executor must retry outstanding ledger extents, batched;
* **silent corruption** (``sdc_seed`` on transfer requests) — a seeded
  non-fail-stop :class:`~repro.machine.faults.SDCModel` corrupts
  payloads in flight; integrity verification must detect every corrupt
  arrival, credit nothing for it, and either deliver over clean paths
  or land a deterministic ``corrupt-data`` quarantine record;
* **overload bursts** — a step-profile window at ``overload_factor``
  times the base arrival rate exercises shedding and the degradation
  ladder.

While the campaign runs, a sampler records goodput / shed-rate /
degrade-tier trajectories from the service gauges.  Afterwards a
**drain** phase re-drives every request that did not land a
deterministic terminal record (shed or client-rejected under overload)
with backpressure submits until it does.  The final per-request records
are *deterministic*: completed payloads are pure functions of the
request params, and the only failures are the deterministically
injected ones (``poison:``/``hang:``).  They are journaled to a WAL as
they land, so a campaign SIGKILLed at any point can be rerun with
``resume=True`` and its results file is **byte-identical** to an
uninterrupted run's.

Machine-verified invariants (schema ``chaos-service/1``):

``all-terminal``
    every scheduled request reached a client-visible terminal state in
    the live phase (completed/failed/shed/rejected — nothing lost);
``all-resolved``
    after the drain, every request has a deterministic terminal record
    (completed payload or injected failure);
``exactly-once``
    no request's payload was credited twice (at most one completed
    record per request id across all retry attempts), and every
    completed checksum verifies;
``ledger-conservation``
    fault-traced transfer payloads conserve bytes
    (``delivered + residue == total``);
``no-corrupt-acked``
    no final payload acknowledged a single corrupted byte
    (``corrupted_acknowledged_bytes == 0`` everywhere);
``metrics-monotone``
    no ``service.*``/``resilience.*`` counter ran backwards.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path
from typing import Callable

import numpy as np

from repro.obs.metrics import counter_violations, get_registry
from repro.service.journal import Journal, load_journal
from repro.service.request import (
    COMPLETED,
    FAILED,
    ScenarioRequest,
    canonical_json,
    payload_checksum,
)
from repro.service.service import ScenarioService, ServiceConfig
from repro.util.atomicio import atomic_write_json
from repro.util.log import get_logger
from repro.util.validation import ConfigError

log = get_logger(__name__)

#: Results-file schema tag.
SERVICE_CHAOS_FORMAT = "chaos-service/1"

_MiB = 1 << 20

#: Error marker of each injection kind: the only failure a scheduled
#: injection may deterministically land as.
_INJECT_ERROR_MARKER = {"crash": "poison:", "hang": "hang:"}


@dataclass(frozen=True)
class ServiceCampaignConfig:
    """One live-service chaos campaign, fully seeded.

    ``rate`` is the base offered load; a window covering
    ``overload_frac`` of the horizon runs at ``overload_factor`` times
    that.  ``fault_frac`` of the transfer requests carry a seeded
    ``fault_seed`` link-fault trace; ``sdc_frac`` carry a seeded
    ``sdc_seed`` silent-corruption model; ``crash_frac``/``hang_frac``
    of all requests are replaced with worker crash/hang injections.
    """

    n_requests: int = 200
    seed: int = 2014
    name: str = "chaos-service"
    workers: int = 2
    queue_cap: int = 32
    admission: str = "adaptive"
    max_attempts: int = 2
    hang_timeout_s: float = 1.5
    rate: float = 60.0
    overload_factor: float = 8.0
    overload_frac: float = 0.25
    nnodes: int = 32
    nbytes: int = _MiB
    fault_frac: float = 0.10
    sdc_frac: float = 0.05
    crash_frac: float = 0.02
    hang_frac: float = 0.01
    fault_events: int = 3
    sample_dt_s: float = 0.2

    def __post_init__(self):
        if self.n_requests < 1:
            raise ConfigError(f"n_requests must be >= 1, got {self.n_requests}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.rate <= 0:
            raise ConfigError(f"rate must be > 0, got {self.rate}")
        if self.overload_factor < 1:
            raise ConfigError(
                f"overload_factor must be >= 1, got {self.overload_factor}"
            )
        if not 0 <= self.overload_frac < 1:
            raise ConfigError(
                f"overload_frac must be in [0, 1), got {self.overload_frac}"
            )
        for frac_name in ("fault_frac", "sdc_frac", "crash_frac", "hang_frac"):
            v = getattr(self, frac_name)
            if not 0 <= v <= 1:
                raise ConfigError(f"{frac_name} must be in [0, 1], got {v}")
        if self.hang_timeout_s <= 0:
            raise ConfigError(
                f"hang_timeout_s must be > 0, got {self.hang_timeout_s}"
            )

    def to_dict(self) -> dict:
        """JSON-able config (part of the campaign identity)."""
        return {
            "n_requests": self.n_requests,
            "seed": self.seed,
            "name": self.name,
            "workers": self.workers,
            "queue_cap": self.queue_cap,
            "admission": self.admission,
            "max_attempts": self.max_attempts,
            "hang_timeout_s": self.hang_timeout_s,
            "rate": self.rate,
            "overload_factor": self.overload_factor,
            "overload_frac": self.overload_frac,
            "nnodes": self.nnodes,
            "nbytes": self.nbytes,
            "fault_frac": self.fault_frac,
            "sdc_frac": self.sdc_frac,
            "crash_frac": self.crash_frac,
            "hang_frac": self.hang_frac,
            "fault_events": self.fault_events,
        }


def build_campaign_schedule(config: ServiceCampaignConfig):
    """The campaign's deterministic request schedule.

    A Poisson arrival stream over a step profile (base rate → overload
    burst → base rate) is generated for ~1.25x the target count and
    trimmed to exactly ``n_requests``, then the injection pass rewrites
    a seeded subset of requests into crashes, hangs, fault-traced
    transfers, and silent-corruption transfers.  Same config →
    byte-identical schedule.
    """
    from repro.loadgen.arrivals import Schedule, build_schedule, make_profile
    from repro.loadgen.mix import get_mix

    c = config
    mean_rate = c.rate * (1 - c.overload_frac) + c.rate * c.overload_factor * (
        c.overload_frac
    )
    # Oversize the horizon so the seeded Poisson draw can't come up short.
    duration_s = 1.25 * c.n_requests / mean_rate
    if c.overload_frac > 0 and c.overload_factor > 1:
        pre = (1 - c.overload_frac) / 2 * duration_s
        burst = c.overload_frac * duration_s
        profile = make_profile(
            "step",
            rate=c.rate,
            duration_s=duration_s,
            steps=(
                (pre, c.rate),
                (burst, c.rate * c.overload_factor),
                (duration_s - pre - burst, c.rate),
            ),
        )
    else:
        profile = make_profile("constant", rate=c.rate, duration_s=duration_s)
    schedule = build_schedule(
        process="poisson",
        profile=profile,
        mix=get_mix("transfer"),
        seed=c.seed,
        run_id=c.name,
        params_override={"nnodes": c.nnodes, "nbytes": c.nbytes},
    )
    if len(schedule.items) < c.n_requests:
        raise ConfigError(
            f"seeded schedule produced {len(schedule.items)} arrivals "
            f"< n_requests {c.n_requests}; raise rate or lower n_requests"
        )
    items = list(schedule.items[: c.n_requests])
    for i, item in enumerate(items):
        rng = np.random.default_rng([c.seed, 7, i])
        u = float(rng.random())
        req = item.request
        if u < c.crash_frac:
            req = ScenarioRequest(
                id=req.id, kind="spin", params={"duration_s": 0.005},
                inject="crash",
            )
        elif u < c.crash_frac + c.hang_frac:
            # No deadline: the watchdog's hang timeout is the backstop
            # under test (its failure record is deterministic).
            req = ScenarioRequest(id=req.id, kind="spin", inject="hang")
        elif float(rng.random()) < c.fault_frac:
            req = dc_replace(
                req,
                params={
                    **req.params,
                    "fault_seed": int(rng.integers(0, 2**31)),
                    "fault_events": c.fault_events,
                },
            )
        elif float(rng.random()) < c.sdc_frac:
            # Silent corruption: the seeded SDCModel never alters the
            # simulated flow — only end-to-end verification can see it.
            req = dc_replace(
                req,
                params={
                    **req.params,
                    "sdc_seed": int(rng.integers(0, 2**31)),
                    "sdc_flip_links": 8,
                    "sdc_corrupt_proxies": 2,
                    "sdc_rate": 0.7,
                    "sdc_stale_rate": 0.1,
                },
            )
        items[i] = dc_replace(item, request=req)
    return Schedule(
        items=tuple(items),
        profile=schedule.profile,
        process=schedule.process,
        mix=schedule.mix,
        seed=schedule.seed,
    )


def campaign_identity(config: ServiceCampaignConfig, schedule) -> str:
    """sha256 identity tying the journal to config + offered load."""
    doc = {"config": config.to_dict(), "schedule": schedule.checksum()}
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def _base_id(rid: str) -> str:
    """Strip the client-retry (``-rK``) / drain (``-dK``) suffix."""
    for marker in ("-r", "-d"):
        head, sep, tail = rid.rpartition(marker)
        if sep and tail.isdigit():
            return head
    return rid


def _trusted(record, inject=None, *, sdc=False) -> bool:
    """Is a replayed journal record a deterministic terminal record?

    Completed records must checksum-verify and be *canonical* — not
    produced under the degradation ladder (a ``degraded`` payload is a
    legitimate client response under overload, but not a pure function
    of the request params, so the campaign re-derives the canonical
    record in the drain).  Failed records are trusted only when the
    *schedule* injected that failure (``inject`` is the scheduled
    request's injection) and the error carries the matching marker: a
    genuine request killed by the hang watchdog on a slow machine says
    ``hang:`` too, but its canonical record is a completion — it must
    re-run.  For corruption-seeded requests (``sdc``), a
    ``corrupt-data`` quarantine failure is also canonical: the service
    only raises it when the ladder did not cap planning, so it is a
    deterministic function of the request params.  Shed records are
    retriable by construction and never trusted.
    """
    status = record.get("status")
    if status == COMPLETED:
        payload = record.get("payload")
        return (
            payload is not None
            and not payload.get("degraded")
            and record.get("checksum") == payload_checksum(payload)
        )
    if status == FAILED:
        error = record.get("error") or ""
        if sdc and "corrupt-data:" in error:
            return True
        marker = _INJECT_ERROR_MARKER.get(inject)
        return marker is not None and error.startswith(marker)
    return False


class _Sampler(threading.Thread):
    """Samples service gauges into trajectory arrays while live."""

    def __init__(self, svc: ScenarioService, dt_s: float, completed_count):
        super().__init__(daemon=True)
        self._svc = svc
        self._dt = dt_s
        self._completed_count = completed_count
        self._halt = threading.Event()
        self.t: list[float] = []
        self.inflight: list[int] = []
        self.queue_depth: list[int] = []
        self.degrade_tier: list[int] = []
        self.shed_rate: list[float] = []
        self.completed: list[int] = []

    def run(self) -> None:
        reg = get_registry()
        t0 = time.monotonic()
        while not self._halt.is_set():
            gauges = reg.snapshot()["gauges"]
            stats = self._svc.stats()
            self.t.append(time.monotonic() - t0)
            self.inflight.append(int(stats.get("inflight", 0)))
            self.queue_depth.append(int(stats.get("queue_depth", 0)))
            self.degrade_tier.append(int(stats.get("degrade_tier", 0)))
            self.shed_rate.append(float(gauges.get("service.shed_rate", 0.0)))
            self.completed.append(int(self._completed_count()))
            self._halt.wait(self._dt)

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)

    def to_dict(self) -> dict:
        return {
            "t_s": self.t,
            "inflight": self.inflight,
            "queue_depth": self.queue_depth,
            "degrade_tier": self.degrade_tier,
            "shed_rate": self.shed_rate,
            "completed": self.completed,
        }


def run_service_campaign(
    config: "ServiceCampaignConfig | None" = None,
    *,
    out_path: "Path | str",
    journal_path: "Path | str | None" = None,
    resume: bool = False,
    progress: "Callable[[str], None] | None" = None,
) -> dict:
    """Run (or resume) a live-service chaos campaign; returns a summary.

    Writes the deterministic per-request results document to
    ``out_path`` (schema ``chaos-service/1``, atomic) and journals
    every terminal record to ``journal_path`` (default:
    ``<out>.journal``) as it lands.  The returned summary additionally
    carries the non-deterministic live measurements — live statuses,
    shed counts, gauge trajectories, wall time — for
    ``benchmarks/record.py`` to fold into ``BENCH_resilience.json``.
    """
    from repro.loadgen.runner import InProcessTransport, LoadConfig, run_schedule

    config = config or ServiceCampaignConfig()
    out_path = Path(out_path)
    journal_path = (
        Path(journal_path)
        if journal_path is not None
        else out_path.with_name(out_path.name + ".journal")
    )
    say = progress or (lambda _msg: None)

    schedule = build_campaign_schedule(config)
    sha = campaign_identity(config, schedule)
    # The failure-trust model needs to know what each request *should*
    # do: a "hang:" record is deterministic only for a scheduled hang.
    inject_by_base = {
        _base_id(item.request.id): item.request.inject
        for item in schedule.items
    }
    sdc_by_base = {
        _base_id(item.request.id): item.request.params.get("sdc_seed") is not None
        for item in schedule.items
    }

    done: "dict[str, dict]" = {}
    if resume and journal_path.exists():
        journal_sha, records = load_journal(journal_path)
        if journal_sha != sha:
            raise ConfigError(
                f"journal {journal_path} belongs to a different campaign "
                f"({journal_sha[:12]}... != {sha[:12]}...); rerun without --resume"
            )
        for rid, record in records.items():
            base = _base_id(rid)
            if (
                base in inject_by_base
                and base not in done
                and _trusted(
                    record,
                    inject_by_base[base],
                    sdc=sdc_by_base.get(base, False),
                )
            ):
                done[base] = dict(record, id=base)
        journal = Journal.open_for_append(journal_path, sha)
    else:
        journal = Journal.create(journal_path, sha)

    todo = [
        item for item in schedule.items
        if _base_id(item.request.id) not in done
    ]
    say(
        f"chaos-service campaign {config.name!r}: "
        f"{len(schedule.items)} requests, {len(done)} journaled, "
        f"{len(todo)} to run"
    )

    reg = get_registry()
    counters_before = dict(reg.snapshot()["counters"])
    journal_lock = threading.Lock()
    live_records: "list[dict]" = []
    record_by_id: "dict[str, dict]" = {}
    completed_n = [0]

    def on_result(result) -> None:
        record = result.record()
        with journal_lock:
            journal.append(record)
            live_records.append(record)
            record_by_id[record["id"]] = record
            if record["status"] == COMPLETED:
                completed_n[0] += 1

    svc_config = ServiceConfig(
        workers=config.workers,
        queue_cap=config.queue_cap,
        admission=config.admission,
        max_attempts=config.max_attempts,
        hang_timeout_s=config.hang_timeout_s,
        kill_grace_s=0.1,
    )
    load_cfg = LoadConfig(
        rate=config.rate,
        duration_s=max(schedule.duration_s, 1e-3),
        seed=config.seed,
        mix="transfer",
        mode="open",
    )

    invariant_failures: "list[str]" = []
    report = None
    wall_t0 = time.perf_counter()
    try:
        with ScenarioService(svc_config, on_result=on_result) as svc:
            sampler = _Sampler(
                svc, config.sample_dt_s, lambda: completed_n[0]
            )
            sampler.start()
            try:
                if todo:
                    from repro.loadgen.arrivals import Schedule

                    sub = Schedule(
                        items=tuple(todo),
                        profile=schedule.profile,
                        process=schedule.process,
                        mix=schedule.mix,
                        seed=schedule.seed,
                    )
                    report = run_schedule(sub, InProcessTransport(svc), load_cfg)
            finally:
                sampler.stop()

            # -- drain: re-drive everything without a deterministic
            #    terminal record (overload sheds / client rejections).
            # Settle first: every *admitted* request must have reached
            # the journal sink (wait_all returns after the callbacks),
            # or the drain could re-run a request whose completion is
            # still in flight (a real duplicate).
            svc.wait_all(timeout=240.0)
            finals: "dict[str, dict]" = dict(done)
            with journal_lock:
                snapshot = list(live_records)
            for record in snapshot:
                base = _base_id(record["id"])
                if base not in finals and _trusted(
                    record,
                    inject_by_base.get(base),
                    sdc=sdc_by_base.get(base, False),
                ):
                    finals[base] = dict(record, id=base)
            pending = [
                item for item in schedule.items
                if _base_id(item.request.id) not in finals
            ]
            drain_round = 0
            while pending and drain_round < 20:
                drain_round += 1
                say(
                    f"drain round {drain_round}: {len(pending)} request(s) "
                    "without a deterministic record"
                )
                # The drain wants canonical results: wait for the
                # degradation ladder to step back to the direct tier
                # and the breakers (tripped by injected worker crashes)
                # to close before re-driving, or degraded plans and
                # admission sheds would just bounce for more rounds.
                recover_deadline = time.monotonic() + 30.0
                while time.monotonic() < recover_deadline:
                    stats = svc.stats()
                    if (
                        int(stats.get("degrade_tier", 0)) == 0
                        and stats.get("planner_breaker") == "closed"
                        and stats.get("simulator_breaker") == "closed"
                    ):
                        break
                    time.sleep(0.05)
                # Re-drive in worker-sized chunks: flooding the queue
                # here would re-escalate the ladder and the round's own
                # results would come back degraded (= untrusted).
                chunk = max(1, config.workers)
                for lo in range(0, len(pending), chunk):
                    batch = []
                    for item in pending[lo : lo + chunk]:
                        req = dc_replace(
                            item.request,
                            id=f"{item.request.id}-d{drain_round}",
                        )
                        svc.submit(req, block=True, timeout=120.0)
                        batch.append(req)
                    for req in batch:
                        svc.result(req.id, timeout=240.0)  # after on_result
                        record = record_by_id[req.id]
                        base = _base_id(req.id)
                        if _trusted(
                            record,
                            inject_by_base.get(base),
                            sdc=sdc_by_base.get(base, False),
                        ):
                            finals[base] = dict(record, id=base)
                pending = [
                    item for item in schedule.items
                    if _base_id(item.request.id) not in finals
                ]
            if pending:
                invariant_failures.append(
                    f"all-resolved: {len(pending)} request(s) never landed "
                    f"a deterministic record, e.g. "
                    f"{pending[0].request.id}"
                )
    finally:
        journal.close()
    wall_s = time.perf_counter() - wall_t0
    counters_after = dict(reg.snapshot()["counters"])

    # -- invariants ------------------------------------------------------
    invariants: "dict[str, bool]" = {}

    def check(name: str, ok: bool, detail: str = "") -> None:
        invariants[name] = bool(ok)
        if not ok:
            invariant_failures.append(f"{name}: {detail}" if detail else name)

    live_outcomes = report.outcomes if report is not None else []
    check(
        "all-terminal",
        len(live_outcomes) == len(todo),
        f"{len(live_outcomes)} outcomes for {len(todo)} driven requests",
    )

    check(
        "all-resolved",
        not any(f.startswith("all-resolved") for f in invariant_failures)
        and len(finals) == len(schedule.items),
        f"{len(finals)}/{len(schedule.items)} resolved",
    )

    # Exactly-once ledger credit, three layers: no service request id
    # was journaled twice (per-id credit is the service's guarantee —
    # client retries and drain re-drives use fresh ids on purpose); no
    # logical request collected more than one *canonical* completion;
    # and every completed checksum verifies.
    canonical_per_base: "dict[str, int]" = {}
    seen_ids: "dict[str, int]" = {}
    checksum_bad: "list[str]" = []
    with journal_lock:
        all_records = list(live_records)
    for record in all_records:
        seen_ids[record["id"]] = seen_ids.get(record["id"], 0) + 1
        if record["status"] == COMPLETED:
            payload = record.get("payload") or {}
            if record.get("checksum") != payload_checksum(record.get("payload")):
                checksum_bad.append(record["id"])
            if not payload.get("degraded"):
                base = _base_id(record["id"])
                canonical_per_base[base] = canonical_per_base.get(base, 0) + 1
    dupe_ids = sorted(i for i, n in seen_ids.items() if n > 1)
    dupes = sorted(b for b, n in canonical_per_base.items() if n > 1)
    check(
        "exactly-once",
        not dupes and not dupe_ids and not checksum_bad,
        f"duplicate canonical completions {dupes[:5]}, "
        f"duplicate journal ids {dupe_ids[:5]}, "
        f"bad checksums {checksum_bad[:5]}",
    )

    unconserved = []
    for base, record in finals.items():
        payload = record.get("payload") or {}
        if payload.get("faulted"):
            if (
                payload.get("delivered_bytes", 0)
                + payload.get("residue_bytes", 0)
                != payload.get("total_bytes", 0)
            ):
                unconserved.append(base)
    check(
        "ledger-conservation",
        not unconserved,
        f"bytes not conserved for {unconserved[:5]}",
    )

    # The tentpole invariant: no payload anywhere — live, drained, or
    # replayed from a journal — ever acknowledged a corrupted byte.
    corrupt_acked = [
        base
        for base, record in finals.items()
        if (record.get("payload") or {}).get("corrupted_acknowledged_bytes", 0)
    ]
    check(
        "no-corrupt-acked",
        not corrupt_acked,
        f"corrupted bytes acknowledged for {corrupt_acked[:5]}",
    )

    bad = counter_violations(counters_before, counters_after)
    check("metrics-monotone", not bad, f"counters went backwards: {bad}")

    # -- deterministic results document ----------------------------------
    records_sorted = [finals[b] for b in sorted(finals)]
    counts = {COMPLETED: 0, FAILED: 0}
    for record in records_sorted:
        counts[record["status"]] = counts.get(record["status"], 0) + 1
    atomic_write_json(
        out_path,
        {
            "format": SERVICE_CHAOS_FORMAT,
            "name": config.name,
            "campaign_sha": sha,
            "counts": counts,
            "records": records_sorted,
        },
    )

    n_injected = sum(
        1 for item in schedule.items if item.request.inject is not None
    )
    n_faulted = sum(
        1
        for item in schedule.items
        if item.request.params.get("fault_seed") is not None
    )
    n_sdc = sum(1 for v in sdc_by_base.values() if v)
    n_corrupt_quarantined = sum(
        1
        for record in finals.values()
        if record["status"] == FAILED
        and "corrupt-data:" in (record.get("error") or "")
    )
    live_statuses: "dict[str, int]" = {}
    for o in live_outcomes:
        live_statuses[o.status] = live_statuses.get(o.status, 0) + 1
    summary = {
        "schema": SERVICE_CHAOS_FORMAT,
        "config": config.to_dict(),
        "campaign_sha": sha,
        "n_requests": len(schedule.items),
        "n_injected_crash_hang": n_injected,
        "n_fault_traced": n_faulted,
        "n_sdc_seeded": n_sdc,
        "n_corrupt_quarantined": n_corrupt_quarantined,
        "resumed": len(done),
        "driven": len(todo),
        "live_statuses": live_statuses,
        "shed_events": live_statuses.get("shed", 0)
        + live_statuses.get("rejected", 0),
        "counts": counts,
        "invariants": invariants,
        "failures": invariant_failures,
        "passed": not invariant_failures,
        "trajectories": sampler.to_dict(),
        "wall_s": wall_s,
        "out": str(out_path),
        "journal": str(journal_path),
    }
    say(
        f"chaos-service: {counts.get(COMPLETED, 0)} completed, "
        f"{counts.get(FAILED, 0)} failed (injected), "
        f"{n_corrupt_quarantined} corrupt-data quarantined, "
        f"{summary['shed_events']} live shed/rejected, "
        f"invariants {'PASS' if summary['passed'] else 'FAIL'}"
    )
    return summary
