"""Live-service chaos campaigns (``repro chaos --service``).

:func:`~repro.resilience.service_chaos.run_service_campaign` boots a
real :class:`~repro.service.service.ScenarioService`, drives it with the
load generator while injecting worker crashes, hangs, link-fault traces
and an overload burst from a seeded schedule, then machine-verifies the
campaign invariants.  These tests cover the schedule builder, the
trust/identity helpers, a full in-process campaign (including
byte-for-byte determinism of the results document), and — in a
subprocess, because workers spawn — the mid-campaign SIGKILL + WAL
``--resume`` replay contract.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.resilience.service_chaos import (
    SERVICE_CHAOS_FORMAT,
    ServiceCampaignConfig,
    _base_id,
    _trusted,
    build_campaign_schedule,
    campaign_identity,
    run_service_campaign,
)
from repro.util.validation import ConfigError

# Small + hot: high rate keeps the wall time down, high injection
# fractions exercise every recovery path in one campaign.
SMALL = dict(
    n_requests=24,
    seed=11,
    workers=2,
    rate=120.0,
    overload_factor=6.0,
    fault_frac=0.2,
    crash_frac=0.05,
    hang_frac=0.05,
    hang_timeout_s=1.5,
    nnodes=32,
    nbytes=1 << 19,
)


class TestCampaignSchedule:
    def test_seeded_schedule_is_reproducible_and_injected(self):
        c = ServiceCampaignConfig(**SMALL)
        s1 = build_campaign_schedule(c)
        s2 = build_campaign_schedule(c)
        assert s1.checksum() == s2.checksum()
        assert len(s1.items) == c.n_requests
        kinds = {it.request.kind for it in s1.items}
        assert kinds & {"p2p", "group", "fanin"}, kinds
        injected = [it for it in s1.items if it.request.inject]
        faulted = [
            it
            for it in s1.items
            if it.request.params.get("fault_seed") is not None
        ]
        assert injected, "seeded campaign must inject crash/hang requests"
        assert faulted, "seeded campaign must carry fault traces"

    def test_identity_covers_config_and_schedule(self):
        c1 = ServiceCampaignConfig(**SMALL)
        c2 = ServiceCampaignConfig(**{**SMALL, "seed": 12})
        assert campaign_identity(c1, build_campaign_schedule(c1)) == (
            campaign_identity(c1, build_campaign_schedule(c1))
        )
        assert campaign_identity(c1, build_campaign_schedule(c1)) != (
            campaign_identity(c2, build_campaign_schedule(c2))
        )

    @pytest.mark.parametrize(
        "bad",
        [
            {"n_requests": 0},
            {"rate": 0.0},
            {"fault_frac": 1.5},
            {"overload_frac": -0.1},
            {"workers": 0},
        ],
    )
    def test_bad_config_rejected(self, bad):
        with pytest.raises(ConfigError):
            ServiceCampaignConfig(**{**SMALL, **bad})


class TestTrustHelpers:
    def test_base_id_strips_retry_and_drain_suffixes(self):
        assert _base_id("run-000001") == "run-000001"
        assert _base_id("run-000001-r1") == "run-000001"
        assert _base_id("run-000001-d3") == "run-000001"
        assert _base_id("run-000001-r1-d2") == "run-000001-r1"

    def test_only_canonical_completions_are_trusted(self):
        from repro.service.request import payload_checksum

        payload = {"kind": "transfer", "mode_used": "proxied"}
        rec = {
            "id": "x",
            "status": "completed",
            "payload": payload,
            "checksum": payload_checksum(payload),
        }
        assert _trusted(rec)
        degraded = dict(rec, payload=dict(payload, degraded=True))
        degraded["checksum"] = payload_checksum(degraded["payload"])
        assert not _trusted(degraded)
        corrupt = dict(rec, checksum="not-the-checksum")
        assert not _trusted(corrupt)

    def test_injected_failures_are_trusted_shed_is_not(self):
        crash = {"id": "x", "status": "failed", "error": "poison: worker crashed"}
        hang = {"id": "x", "status": "failed", "error": "hang: no result after 1.5s"}
        assert _trusted(crash, inject="crash")
        assert _trusted(hang, inject="hang")
        assert not _trusted(
            {"id": "x", "status": "failed", "error": "planner degraded"},
            inject="crash",
        )
        assert not _trusted({"id": "x", "status": "shed"}, inject="hang")

    def test_failures_on_uninjected_requests_are_never_trusted(self):
        """A genuine request hard-killed by the hang watchdog on a slow
        machine lands the same ``hang:`` error an injected hang does —
        but its canonical record is a completion, so it must re-run."""
        hang = {"id": "x", "status": "failed", "error": "hang: no result after 1.5s"}
        assert not _trusted(hang)  # not in the injection schedule
        assert not _trusted(hang, inject="crash")  # wrong marker
        crash = {"id": "x", "status": "failed", "error": "poison: worker crashed"}
        assert not _trusted(crash)
        assert not _trusted(crash, inject="hang")


class TestCanonicalPayloadMarking:
    """Degradation-ladder caps must *mark* the payloads they touch —
    the campaign's replay trust model depends on it."""

    def test_ladder_cap_marks_only_binding_caps(self):
        from repro.service.scenarios import _ladder_capped

        assert not _ladder_capped({}, None)  # ladder inactive
        assert _ladder_capped({}, 2)  # default k tightened
        assert _ladder_capped({"max_proxies": 8}, 2)  # own k tightened
        assert not _ladder_capped({"max_proxies": 2}, 2)  # cap not binding
        assert not _ladder_capped({"max_proxies": 1}, 4)

    def test_capped_transfer_payload_carries_degraded_flag(self):
        from repro.service.scenarios import execute_request

        params = {"nnodes": 32, "nbytes": 1 << 16}
        canonical, _, _ = execute_request("p2p", params)
        capped, _, _ = execute_request("p2p", params, max_proxies_cap=1)
        assert not canonical.get("degraded")
        assert capped.get("degraded")

    def test_capped_faulted_payload_carries_degraded_flag(self):
        from repro.service.scenarios import execute_request

        params = {"nnodes": 32, "nbytes": 1 << 16, "fault_seed": 7}
        canonical, _, _ = execute_request("p2p", params)
        capped, _, _ = execute_request("p2p", params, max_proxies_cap=1)
        assert canonical.get("faulted") and not canonical.get("degraded")
        assert capped.get("faulted") and capped.get("degraded")


@pytest.mark.timeout(240)
class TestCampaignInvariants:
    def test_small_campaign_passes_all_invariants(self, tmp_path):
        out = tmp_path / "campaign.json"
        summary = run_service_campaign(
            ServiceCampaignConfig(**SMALL), out_path=out
        )
        assert summary["passed"], summary["failures"]
        assert summary["schema"] == SERVICE_CHAOS_FORMAT
        # 100% terminal: every live outcome ended in a terminal status
        # and every scheduled request has a deterministic final record.
        assert summary["invariants"]["all-terminal"]
        assert summary["invariants"]["all-resolved"]
        assert summary["invariants"]["exactly-once"]
        assert summary["invariants"]["ledger-conservation"]
        assert summary["invariants"]["metrics-monotone"]
        assert sum(summary["counts"].values()) == SMALL["n_requests"]
        traj = summary["trajectories"]
        assert traj["t_s"] and len(traj["t_s"]) == len(traj["inflight"])

        doc = json.loads(out.read_text())
        assert doc["format"] == SERVICE_CHAOS_FORMAT
        assert len(doc["records"]) == SMALL["n_requests"]
        # The journal must replay to the same sha-bound campaign.
        assert doc["campaign_sha"] == summary["campaign_sha"]

    def test_results_document_is_deterministic(self, tmp_path):
        """Two fresh runs of the same seeded campaign — independent
        services, schedulers, crashes and all — must produce
        byte-identical results documents."""
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            summary = run_service_campaign(
                ServiceCampaignConfig(**SMALL), out_path=out
            )
            assert summary["passed"], summary["failures"]
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


@pytest.mark.timeout(300)
class TestKillAndResume:
    """Mid-campaign SIGKILL, then ``--resume``: the WAL journal replay
    must land on a byte-identical results document."""

    ARGS = [
        "chaos", "--service",
        "--requests", str(SMALL["n_requests"]),
        "--seed", str(SMALL["seed"]),
        "--workers", str(SMALL["workers"]),
        "--rate", str(SMALL["rate"]),
        "--overload-factor", str(SMALL["overload_factor"]),
        "--fault-frac", str(SMALL["fault_frac"]),
        "--crash-frac", str(SMALL["crash_frac"]),
        "--hang-frac", str(SMALL["hang_frac"]),
        "--hang-timeout", str(SMALL["hang_timeout_s"]),
        "--nodes", str(SMALL["nnodes"]),
        "--size", str(SMALL["nbytes"]),
    ]

    def _run(self, out, *extra, check=True):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[1] / "src"
        ) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *self.ARGS, "--out", str(out), *extra],
            env=env,
            capture_output=True,
            text=True,
            timeout=240,
        )
        if check:
            assert proc.returncode == 0, proc.stderr[-2000:]
        return proc

    def test_resume_after_sigkill_is_byte_identical(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        self._run(baseline)

        killed = tmp_path / "killed.json"
        journal = Path(str(killed) + ".journal")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[1] / "src"
        ) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.ARGS, "--out", str(killed)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # Let the campaign journal some—but ideally not all—records,
        # then kill the whole process group the hard way.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if journal.exists() and journal.stat().st_size > 200:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

        # Whatever survived the kill, --resume must finish the campaign
        # and reproduce the baseline document byte-for-byte.
        self._run(killed, "--resume")
        assert killed.read_bytes() == baseline.read_bytes()

    def test_resume_rejects_foreign_journal(self, tmp_path):
        out = tmp_path / "c.json"
        self._run(out)
        # Same journal, different campaign seed: identity mismatch.
        proc = self._run(
            tmp_path / "d.json",
            "--seed", "999",
            "--journal", str(out) + ".journal",
            "--resume",
            check=False,
        )
        assert proc.returncode == 2
