"""Hypothesis invariants of the silent-corruption (SDC) defense.

Acceptance-level properties of the inject → detect → re-drive loop
(``docs/RESILIENCE.md`` §12):

* **no corrupt acknowledgement, ever** — whatever the seeded SDC model
  does, zero corrupted bytes are credited, and a run that returns
  delivered exactly the requested bytes over verified-clean arrivals;
* **guaranteed detection** — a rate-1.0 corrupter on a carrier that
  round 0 certainly crosses produces at least one detected corrupt
  arrival (detection is end-to-end, not probabilistic plumbing);
* **zero false positives** — a null-but-active SDC model (verification
  on, nothing ever corrupted) detects nothing, drops nothing, and is
  byte-identical to not verifying at all;
* **serial/batched parity** — the lockstep-wave batched executor
  (:func:`run_resilient_transfer_many`) reaches byte-identical outcomes
  and identical corruption verdicts under one seed, because every
  corruption decision is a pure function of ``(seed, carrier, extent,
  round)`` — no mutable RNG whose draw order could differ.
"""

from hypothesis import given, settings, strategies as st

from repro.core.multipath import TransferSpec
from repro.machine import mira_system
from repro.machine.faults import SDCModel
from repro.resilience import (
    ResilientPlanner,
    RetryPolicy,
    TransferAbortedError,
    run_resilient_transfer,
)
from repro.resilience.executor import run_resilient_transfer_many

MiB = 1 << 20

SYSTEM = mira_system(nnodes=128)
_PLANS = ResilientPlanner(SYSTEM).plan([TransferSpec(src=0, dst=127, nbytes=MiB)])
_ASG = _PLANS[0].assignment

#: Carriers round 0 certainly uses: the planned proxies and, per proxy,
#: its two-hop route links.  A fault elsewhere tests nothing.
PLAN_PROXIES = sorted(_ASG.proxies)
ROUTE_LINKS = sorted(
    {l for j in range(_ASG.k) for l in _ASG.phase1[j].links + _ASG.phase2[j].links}
)

rates = st.sampled_from([0.2, 0.5, 0.8, 1.0])

sdc_models = st.builds(
    SDCModel,
    flip_links=st.dictionaries(st.sampled_from(ROUTE_LINKS), rates, max_size=4),
    corrupt_proxies=st.dictionaries(
        st.sampled_from(PLAN_PROXIES), rates, max_size=2
    ),
    stale_rate=st.sampled_from([0.0, 0.1, 0.3]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)

def _run(sdc, nbytes):
    return run_resilient_transfer(
        SYSTEM,
        [TransferSpec(src=0, dst=127, nbytes=nbytes)],
        sdc=sdc,
        policy=RetryPolicy(max_retries=3),
    )


class TestNoCorruptAcknowledgement:
    @settings(max_examples=25, deadline=None)
    @given(sdc=sdc_models, nbytes=st.integers(min_value=1, max_value=4 * MiB))
    def test_never_credits_a_corrupt_extent(self, sdc, nbytes):
        try:
            out = _run(sdc, nbytes)
        except TransferAbortedError as e:
            # Gave up loudly — but still never acknowledged corruption.
            assert e.telemetry is not None
            return
        assert out.corrupted_acknowledged_bytes == 0
        assert out.delivered_bytes == nbytes
        # Re-driven bytes are real work the ledger accounted for.
        if out.telemetry.corrupt_extents_detected:
            assert out.telemetry.corrupt_bytes_redriven > 0


class TestGuaranteedDetection:
    @settings(max_examples=15, deadline=None)
    @given(
        proxy=st.sampled_from(PLAN_PROXIES),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        nbytes=st.integers(min_value=256 * 1024, max_value=4 * MiB),
    )
    def test_certain_proxy_corruption_is_detected(self, proxy, seed, nbytes):
        sdc = SDCModel(corrupt_proxies={proxy: 1.0}, seed=seed)
        try:
            out = _run(sdc, nbytes)
        except TransferAbortedError as e:
            assert e.telemetry.corrupt_extents_detected > 0
            return
        assert out.telemetry.corrupt_extents_detected > 0
        assert out.corrupted_acknowledged_bytes == 0
        assert out.delivered_bytes == nbytes


class TestZeroFalsePositives:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        nbytes=st.integers(min_value=1, max_value=4 * MiB),
    )
    def test_null_model_detects_nothing(self, seed, nbytes):
        verified = _run(SDCModel(seed=seed), nbytes)
        assert verified.telemetry.corrupt_extents_detected == 0
        assert verified.telemetry.stale_drops == 0
        assert verified.corrupted_acknowledged_bytes == 0
        # Verification is pure observation: byte-identical to not
        # verifying at all.
        plain = _run(None, nbytes)
        assert verified.makespan == plain.makespan
        assert verified.delivered_bytes == plain.delivered_bytes
        assert verified.telemetry.rounds == plain.telemetry.rounds


class TestSerialBatchedParity:
    @settings(max_examples=15, deadline=None)
    @given(sdc=sdc_models, nbytes=st.integers(min_value=1, max_value=2 * MiB))
    def test_batched_reaches_identical_verdicts(self, sdc, nbytes):
        def outcome(run):
            try:
                out = run()
            except TransferAbortedError as e:
                t = e.telemetry
                return ("aborted", t.corrupt_extents_detected, t.stale_drops)
            t = out.telemetry
            return (
                out.makespan,
                out.delivered_bytes,
                t.rounds,
                t.corrupt_extents_detected,
                t.corrupt_bytes_redriven,
                t.stale_drops,
                out.corrupted_acknowledged_bytes,
            )

        serial = outcome(lambda: _run(sdc, nbytes))
        batched = outcome(
            lambda: run_resilient_transfer_many(
                SYSTEM,
                [[TransferSpec(src=0, dst=127, nbytes=nbytes)]],
                sdc=[sdc],
                policy=RetryPolicy(max_retries=3),
            )[0]
        )
        assert serial == batched
