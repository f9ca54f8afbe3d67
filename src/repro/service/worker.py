"""Worker-process entrypoint of the scenario service.

Workers are spawned (never forked — the parent runs a supervisor
thread, and forking a multi-threaded parent can clone a held lock into
the child) and loop over a private one-way dispatch pipe, answering on
another: one message in flight per worker, so the parent always knows
exactly which request dies with a crashed worker.  Each side holds only
its own pipe ends, so EOF means the other side is gone: closing the
dispatch pipe shuts a worker down, and a dead worker reads as EOF.

The protocol is plain picklable dicts:

* dispatch ``{"req": <ScenarioRequest dict>, "degraded": bool,
  "tier": int, "max_proxies_cap": int | None,
  "remaining_s": float | None, "plan_cost_est_s": float}``.
* result ``{"id", "worker", "status", "payload", "error", "stage_s",
  "failed_stage", "degraded", "tier"}`` — ``status`` is ``completed``
  or ``failed``; shed/poison verdicts are the *parent's* to make.

``tier`` is the degradation-ladder tier the dispatcher chose
(:mod:`repro.service.degrade`): tier 1 caps the proxy search at
``max_proxies_cap`` paths, tier >= 2 sets ``degraded`` (direct path).
The worker echoes the tier back, promoted to at least 2 when the
scenario degraded itself on deadline pressure mid-run.

Fault injection (``inject`` on the request) happens here, before the
scenario runs: ``crash`` hard-exits the process (``os._exit``) so the
watchdog's restart + poison-quarantine path is exercised for real, and
``hang`` sleeps forever ignoring cooperative cancellation so the
watchdog's deadline hard-kill path is.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

from repro.service.scenarios import StageError, execute_request
from repro.util.cancel import cancel_scope
from repro.util.validation import ReproError, SimulationCancelled

#: Exit code of an injected crash (distinguishable from interpreter
#: faults in the watchdog's restart log).
CRASH_EXIT_CODE = 23


def _exit_with_parent(parent) -> None:
    """Orphan watchdog: wait on the parent's sentinel, then hard-exit
    whatever the main thread is running (an injected hang never returns)."""
    parent.join()
    os._exit(0)


def _run_one(worker_id: int, msg: dict) -> dict:
    req = msg["req"]
    rid = req["id"]
    inject = req.get("inject")
    if inject == "crash":
        os._exit(CRASH_EXIT_CODE)
    if inject == "hang":
        while True:  # ignores cancellation by design; watchdog kills us
            time.sleep(0.05)
    tier = int(msg.get("tier", 0))
    out: dict = {
        "id": rid,
        "worker": worker_id,
        "status": "failed",
        "payload": None,
        "error": None,
        "stage_s": {},
        "failed_stage": None,
        "degraded": bool(msg.get("degraded", False)),
        "tier": tier,
    }
    try:
        with cancel_scope(deadline_s=msg.get("remaining_s")):
            payload, stage_s, degraded = execute_request(
                req["kind"],
                req.get("params", {}),
                degraded=bool(msg.get("degraded", False)),
                plan_cost_est_s=float(msg.get("plan_cost_est_s", 0.0)),
                max_proxies_cap=msg.get("max_proxies_cap"),
            )
        out.update(status="completed", payload=payload, stage_s=stage_s,
                   degraded=degraded, tier=max(tier, 2) if degraded else tier)
    except SimulationCancelled as exc:
        out.update(error=f"deadline: {exc}", failed_stage=None)
    except StageError as exc:
        out.update(error=f"{exc.stage}-error: {exc.cause}", failed_stage=exc.stage,
                   stage_s=getattr(exc, "stage_s", out["stage_s"]))
    except ReproError as exc:
        out.update(error=f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # pragma: no cover - defensive
        out.update(error=f"{type(exc).__name__}: {exc}")
    return out


def worker_main(worker_id: int, requests, results) -> None:
    """Loop: take one dispatch from ``requests``, run it, send one result
    on ``results``.  Returns on EOF (the parent closed its end, or died);
    an orphan stuck mid-request exits through a watchdog thread instead.
    Top-level so it pickles under spawn."""
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(target=_exit_with_parent, args=(parent,), daemon=True).start()
    try:
        while True:
            results.send(_run_one(worker_id, requests.recv()))
    except (EOFError, OSError):
        return  # the parent is gone or shutting this worker down
