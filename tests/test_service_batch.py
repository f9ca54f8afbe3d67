"""Batch campaigns: WAL journal, crash-safe resume, byte-identical results."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.service.batch as batch
import repro.service.scenarios as scenarios
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.service import (
    Journal,
    ScenarioRequest,
    ServiceConfig,
    campaign_sha,
    load_journal,
    make_demo_campaign,
    parse_campaign,
    payload_checksum,
    run_batch,
)
from repro.service.journal import JournalMismatchError
from repro.util.atomicio import atomic_write_json
from repro.util.validation import ConfigError

pytestmark = pytest.mark.timeout(300)

CFG = ServiceConfig(workers=2, queue_cap=16)


class TestCampaignParsing:
    def test_demo_campaign_is_valid_and_deterministic(self):
        doc1, doc2 = make_demo_campaign(10), make_demo_campaign(10)
        assert doc1 == doc2
        assert campaign_sha(doc1) == campaign_sha(doc2)
        _, reqs, _ = parse_campaign(doc1)
        assert len(reqs) == 10
        assert all(isinstance(r, ScenarioRequest) for r in reqs)

    def test_defaults_deadline_applies_to_entries_without_one(self):
        doc = make_demo_campaign(4, deadline_s=9.0)
        doc["scenarios"][0]["deadline_s"] = 1.5
        _, reqs, _ = parse_campaign(doc)
        assert reqs[0].deadline_s == 1.5
        assert all(r.deadline_s == 9.0 for r in reqs[1:])

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda d: d.pop("campaign"), "campaign/1"),
            (lambda d: d.update(scenarios=[]), "non-empty"),
            (lambda d: d["scenarios"].append(dict(d["scenarios"][0])), "duplicate"),
            (lambda d: d["scenarios"][0].update(kind="warp"), "unknown scenario kind"),
            (lambda d: d["scenarios"][0].update(surprise=1), "unknown request fields"),
        ],
    )
    def test_invalid_campaigns_rejected(self, mutate, match):
        doc = make_demo_campaign(3)
        mutate(doc)
        with pytest.raises(ConfigError, match=match):
            parse_campaign(doc)

    def test_missing_and_malformed_files(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            run_batch(tmp_path / "ghost.json", tmp_path / "out.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            run_batch(bad, tmp_path / "out.json")


class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.journal"
        with Journal.create(path, "sha-abc") as j:
            j.append({"id": "a", "status": "completed", "payload": {"x": 1},
                      "checksum": payload_checksum({"x": 1}), "kind": "spin",
                      "error": None})
        sha, records = load_journal(path)
        assert sha == "sha-abc"
        assert records["a"]["payload"] == {"x": 1}

    def test_torn_tail_is_discarded(self, tmp_path):
        path = tmp_path / "j.journal"
        with Journal.create(path, "s") as j:
            j.append({"id": "a", "status": "failed", "error": "x"})
            j.append({"id": "b", "status": "failed", "error": "y"})
        with open(path, "a") as fh:
            fh.write('{"record": {"id": "c", "stat')  # killed mid-append
        _, records = load_journal(path)
        assert set(records) == {"a", "b"}

    def test_records_appended_after_a_torn_tail_survive_reload(self, tmp_path):
        # Regression: a resumed journal appended its first record onto
        # the torn fragment's line, load_journal stopped there, and the
        # next resume lost (and re-ran) everything the last one journaled.
        path = tmp_path / "j.journal"
        with Journal.create(path, "s") as j:
            for rid in "abc":
                j.append({"id": rid, "status": "failed", "error": "x"})
        with open(path, "a") as fh:
            fh.write('{"record": {"id": "d", "stat')  # killed mid-append
        with Journal.open_for_append(path, "s") as j:
            for rid in "def":
                j.append({"id": rid, "status": "failed", "error": "y"})
        _, records = load_journal(path)
        assert set(records) == set("abcdef")
        assert records["d"]["error"] == "y"

    def test_checksum_mismatch_drops_record(self, tmp_path):
        path = tmp_path / "j.journal"
        with Journal.create(path, "s") as j:
            j.append({"id": "a", "status": "failed", "error": "x"})
        lines = path.read_text().splitlines()
        tampered = lines[1].replace('"status":"failed"', '"status":"completed"')
        path.write_text("\n".join([lines[0], tampered]) + "\n")
        _, records = load_journal(path)
        assert records == {}

    def test_open_for_append_rejects_foreign_journal(self, tmp_path):
        path = tmp_path / "j.journal"
        Journal.create(path, "campaign-one").close()
        with pytest.raises(JournalMismatchError):
            Journal.open_for_append(path, "campaign-two")


class TestBatchDeterminism:
    def test_two_fresh_runs_are_byte_identical(self, tmp_path):
        camp = tmp_path / "c.json"
        atomic_write_json(camp, make_demo_campaign(8))
        run_batch(camp, tmp_path / "r1.json", config=CFG)
        run_batch(camp, tmp_path / "r2.json", config=CFG)
        b1 = (tmp_path / "r1.json").read_bytes()
        assert b1 == (tmp_path / "r2.json").read_bytes()
        doc = json.loads(b1)
        assert doc["format"] == "campaign-results/1"
        assert doc["counts"]["completed"] == 8
        ids = [r["id"] for r in doc["results"]]
        assert ids == sorted(ids)
        for r in doc["results"]:
            assert r["checksum"] == payload_checksum(r["payload"])

    def test_resume_with_complete_journal_runs_nothing(self, tmp_path):
        camp = tmp_path / "c.json"
        atomic_write_json(camp, make_demo_campaign(6))
        run_batch(camp, tmp_path / "r1.json", config=CFG)
        summary = run_batch(
            camp, tmp_path / "r2.json",
            journal_path=tmp_path / "r1.json.journal",
            resume=True, config=CFG,
        )
        assert summary["ran"] == 0 and summary["resumed"] == 6
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    def test_resume_refuses_foreign_journal(self, tmp_path):
        camp_a, camp_b = tmp_path / "a.json", tmp_path / "b.json"
        atomic_write_json(camp_a, make_demo_campaign(3, name="a"))
        atomic_write_json(camp_b, make_demo_campaign(3, name="b"))
        run_batch(camp_a, tmp_path / "ra.json", config=CFG)
        with pytest.raises(ConfigError, match="different campaign"):
            run_batch(
                camp_b, tmp_path / "rb.json",
                journal_path=tmp_path / "ra.json.journal",
                resume=True, config=CFG,
            )

    def test_tampered_journal_record_is_rerun_not_trusted(self, tmp_path):
        camp = tmp_path / "c.json"
        atomic_write_json(camp, make_demo_campaign(4))
        run_batch(camp, tmp_path / "r1.json", config=CFG)
        journal = tmp_path / "r1.json.journal"
        lines = journal.read_text().splitlines()
        # Corrupt one journaled payload (keep the line-level JSON valid).
        lines[1] = lines[1].replace('"spun":true', '"spun":false').replace(
            '"nnodes":32', '"nnodes":31'
        )
        journal.write_text("\n".join(lines) + "\n")
        summary = run_batch(
            camp, tmp_path / "r2.json", journal_path=journal,
            resume=True, config=CFG,
        )
        assert summary["ran"] == 1  # the corrupted record was re-executed
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


class TestWaves:
    """The fast path journals each wave of transfer scenarios before it
    computes the next, and a wave whose batched call fails falls back to
    the service alone.  ``make_demo_campaign(16)`` has 12 transfer
    scenarios, so waves of 4 give three batched calls."""

    def test_each_wave_is_durable_before_the_next_runs(self, tmp_path, monkeypatch):
        camp = tmp_path / "c.json"
        atomic_write_json(camp, make_demo_campaign(16))
        out = tmp_path / "r.json"
        journal = tmp_path / "r.json.journal"
        real = scenarios.run_transfer_kinds_batched
        journaled_at_call = []

        def spy(items, **kwargs):
            journaled_at_call.append(len(load_journal(journal)[1]))
            return real(items, **kwargs)

        monkeypatch.setattr(batch, "_WAVE", 4)
        monkeypatch.setattr(scenarios, "run_transfer_kinds_batched", spy)
        summary = run_batch(camp, out, config=CFG)
        assert journaled_at_call == [0, 4, 8]
        assert summary["counts"]["completed"] == 16

    def test_a_failing_wave_falls_back_alone(self, tmp_path, monkeypatch):
        doc = make_demo_campaign(16)
        bad = doc["scenarios"][5]
        assert (bad["id"], bad["kind"]) == ("demo-0005", "group")
        bad["params"]["nbytes"] = 0  # parses, then the batched call raises
        camp = tmp_path / "c.json"
        atomic_write_json(camp, doc)
        # Reference: one wave, so the failure sends every transfer
        # scenario through the service.
        run_batch(camp, tmp_path / "one-wave.json", config=CFG)

        submitted = []

        class RecordingService(batch.ScenarioService):
            def submit(self, req, *args, **kwargs):
                submitted.append(req.id)
                return super().submit(req, *args, **kwargs)

        monkeypatch.setattr(batch, "_WAVE", 4)
        monkeypatch.setattr(batch, "ScenarioService", RecordingService)
        out = tmp_path / "waves.json"
        with use_registry(MetricsRegistry()) as registry:
            run_batch(camp, out, config=CFG)
        counters = registry.snapshot()["counters"]
        assert counters["service.batch.fast_path"] == 8
        assert counters["service.batch.fast_path_fallback"] == 4
        wave = ["demo-0005", "demo-0006", "demo-0008", "demo-0009"]
        spins = ["demo-0003", "demo-0007", "demo-0011", "demo-0015"]
        assert sorted(submitted) == sorted(wave + spins)
        results = json.loads(out.read_bytes())["results"]
        assert [r["id"] for r in results if r["status"] != "completed"] == [
            "demo-0005"
        ]
        assert out.read_bytes() == (tmp_path / "one-wave.json").read_bytes()


class TestSigkillResume:
    """The acceptance scenario: SIGKILL a batch mid-campaign, resume,
    and get results byte-identical to an uninterrupted run."""

    @pytest.mark.parametrize(
        "n, wave, kill_at",
        [
            # One wave (the default size): killed after 3 records.
            (16, None, 3),
            # Waves of 4: killed once the journal holds a full wave.
            (40, 4, 4),
        ],
        ids=["one-wave", "between-waves"],
    )
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path, n, wave, kill_at):
        camp = tmp_path / "c.json"
        atomic_write_json(camp, make_demo_campaign(n))
        # Reference: an uninterrupted run.
        run_batch(camp, tmp_path / "ref.json", config=CFG)
        ref = (tmp_path / "ref.json").read_bytes()

        out = tmp_path / "killed.json"
        journal = tmp_path / "killed.journal"
        driver = tmp_path / "driver.py"
        set_wave = "" if wave is None else f"    repro.service.batch._WAVE = {wave}\n"
        driver.write_text(
            "import repro.service.batch\n"
            "from repro.service import run_batch, ServiceConfig\n"
            "def main():\n"
            f"{set_wave}"
            f"    run_batch({str(camp)!r}, {str(out)!r},\n"
            f"              journal_path={str(journal)!r},\n"
            "              config=ServiceConfig(workers=2))\n"
            "if __name__ == '__main__':\n"
            "    main()\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(
            os.environ,
            PYTHONPATH=f"{src}{os.pathsep}" + os.environ.get("PYTHONPATH", ""),
        )
        proc = subprocess.Popen([sys.executable, str(driver)], env=env)
        try:
            # Wait until kill_at records (after the header line) are
            # durably journaled, then SIGKILL.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if journal.exists() and (
                    journal.read_bytes().count(b"\n") > kill_at
                ):
                    break
                if proc.poll() is not None:
                    pytest.fail("batch driver exited before it could be killed")
                time.sleep(0.01)
            else:
                pytest.fail("journal never accumulated records")
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        summary = run_batch(
            camp, out, journal_path=journal, resume=True, config=CFG
        )
        assert summary["resumed"] >= kill_at, "journaled work was not reused"
        assert summary["ran"] >= 1, "the kill landed after completion"
        assert summary["resumed"] + summary["ran"] == n
        assert out.read_bytes() == ref
