"""Resilience subsystem: health monitoring, fault-aware planning, and
the detect → re-plan → retry executor.

The headline scenarios mirror the acceptance criteria:

* with zero faults, the resilient path is *byte-identical* to the
  fault-blind planner/executor (plans, flow timings, makespan);
* under a hidden schedule degrading 2 of 4 proxy paths to 25%, the
  resilient executor beats the fault-blind run by >= 1.3x and its
  telemetry shows the failover.
"""

import math

import pytest

from repro.core.multipath import TransferSpec, run_transfer
from repro.core.planner import TransferPlanner
from repro.core.aggregation import (
    AggregatorConfig,
    plan_aggregation,
    precompute_aggregators,
    pset_capacity_weights,
)
from repro.core.iomove import run_io_movement
from repro.machine.faults import FaultEvent, FaultModel, FaultTrace
from repro.resilience import (
    HealthMonitor,
    ResilientPlanner,
    RetryPolicy,
    TransferAbortedError,
    run_resilient_transfer,
)
from repro.util.validation import ConfigError
from repro.workloads import uniform_pattern

MiB = 1 << 20


def degrade_paths(asg, carriers, factor, start=0.0, end=math.inf):
    """A hidden trace degrading whole two-hop routes of chosen carriers."""
    links = set()
    for j in carriers:
        links.update(asg.phase1[j].links)
        links.update(asg.phase2[j].links)
    return FaultTrace(
        tuple(FaultEvent(link=l, factor=factor, start=start, end=end) for l in sorted(links))
    )


class TestHealthMonitor:
    def test_defaults_to_nominal(self, system128):
        m = HealthMonitor(system128)
        assert m.effective_capacity(0) == system128.capacity(0)
        assert m.path_verdict((0, 1, 2)) == "healthy"
        assert m.suspect_links() == []

    def test_known_faults_seed_belief(self, system128):
        faults = FaultModel(degraded_links={3: 0.2}, failed_links=frozenset({7}))
        m = HealthMonitor(system128, faults=faults)
        assert m.effective_capacity(3) == pytest.approx(0.2 * system128.capacity(3))
        assert m.effective_capacity(7) == 0.0
        assert m.path_verdict((3,)) == "degraded"
        assert m.path_verdict((7,)) == "down"
        assert m.suspect_links() == [3, 7]

    def test_observation_replaces_at_round_end(self, system128):
        m = HealthMonitor(system128)
        slow = 0.1 * system128.capacity(5)
        m.observe((5,), slow)
        # Not committed yet: belief unchanged until the round ends.
        assert m.path_verdict((5,)) == "healthy"
        m.end_round()
        assert m.path_verdict((5,)) == "degraded"
        assert 5 in m.suspect_links()
        # A later fast observation restores trust (recovery is visible).
        m.observe((5,), system128.capacity(5))
        m.end_round()
        assert m.path_verdict((5,)) == "healthy"

    def test_round_keeps_best_observation(self, system128):
        m = HealthMonitor(system128)
        m.observe((4,), 10.0)
        m.observe((4,), 1e9)
        m.end_round()
        assert m.effective_capacity(4) == pytest.approx(1e9)

    def test_mark_down(self, system128):
        m = HealthMonitor(system128)
        m.mark_down((9,))
        assert m.effective_capacity(9) == 0.0
        assert m.path_verdict((0, 9)) == "down"

    def test_path_rate_bottleneck_and_clip(self, system128):
        m = HealthMonitor(system128)
        m.observe((2,), 1e8)
        m.end_round()
        stream = min(system128.params.stream_cap, system128.params.mem_bw)
        assert m.path_rate((2, 3)) == pytest.approx(1e8)
        assert m.path_rate(()) == pytest.approx(stream)

    def test_bad_fraction(self, system128):
        with pytest.raises(ConfigError):
            HealthMonitor(system128, suspect_fraction=1.5)
        with pytest.raises(ConfigError):
            m = HealthMonitor(system128)
            m.observe((0,), -1.0)


class TestResilientPlanner:
    def test_fault_free_plans_identical(self, system128):
        specs = [
            TransferSpec(src=0, dst=127, nbytes=8 * MiB),
            TransferSpec(src=1, dst=126, nbytes=4096),
        ]
        base = TransferPlanner(system128).plan(specs)
        resil = ResilientPlanner(system128).plan(specs)
        for b, r in zip(base, resil):
            assert r.strategy == b.strategy
            assert r.predicted_time == b.predicted_time
            assert r.assignment.proxies == b.assignment.proxies
            assert r.weights is None
            assert r.dropped_proxies == ()

    def test_failed_nodes_never_proxy(self, system128):
        base = TransferPlanner(system128).find_plan([(0, 127)])
        victims = frozenset(base.assignments[(0, 127)].proxies[:2])
        planner = ResilientPlanner(
            system128, faults=FaultModel(failed_nodes=victims)
        )
        plan = planner.find_plan([(0, 127)])
        chosen = set(plan.assignments[(0, 127)].proxies)
        assert not (chosen & victims)

    def test_failed_link_path_dropped_and_replaced(self, system128):
        base = TransferPlanner(system128).find_plan([(0, 127)])
        asg = base.assignments[(0, 127)]
        # Kill one link of the first carrier's phase-1 route.
        bad_link = asg.phase1[0].links[0]
        planner = ResilientPlanner(
            system128, faults=FaultModel(failed_links=frozenset({bad_link}))
        )
        plan = planner.find_plan([(0, 127)])
        new_asg = plan.assignments[(0, 127)]
        for j in range(new_asg.k):
            assert bad_link not in new_asg.phase1[j].links
            assert bad_link not in new_asg.phase2[j].links
        # The search found replacements: still enough carriers to profit.
        assert new_asg.k >= 3

    def test_degraded_direct_lowers_threshold(self, system128):
        # 256 KiB with k=4 sits below the pristine fig-5 threshold, so
        # the fault-free planner goes direct; once the direct path drops
        # to 10% capacity, proxying wins.
        spec = TransferSpec(src=0, dst=127, nbytes=256 * 1024)
        direct_links = system128.compute_path(0, 127).links
        faults = FaultModel(degraded_links={l: 0.1 for l in direct_links})
        degraded = ResilientPlanner(system128, faults=faults, max_proxies=4)
        plan = degraded.plan([spec])[0]
        assert plan.strategy == "proxy"
        assert plan.effective_direct_rate < degraded.model.stream_rate

    def test_unequal_weights_for_partially_degraded_carriers(self, system128):
        base = TransferPlanner(system128, max_proxies=4).find_plan([(0, 127)])
        asg = base.assignments[(0, 127)]
        # Degrade one carrier mildly (above min_path_fraction: kept, but
        # its share shrinks).
        bad = {l: 0.6 for l in asg.phase2[0].links}
        planner = ResilientPlanner(
            system128, faults=FaultModel(degraded_links=bad), max_proxies=4
        )
        plan = planner.plan([TransferSpec(src=0, dst=127, nbytes=32 * MiB)])[0]
        assert plan.strategy == "proxy"
        assert plan.weights is not None
        assert min(plan.weights) < max(plan.weights)

    def test_no_route_at_all_raises(self, system128):
        spec = TransferSpec(src=0, dst=127, nbytes=1 * MiB)
        direct_links = system128.compute_path(0, 127).links
        planner = ResilientPlanner(
            system128,
            faults=FaultModel(failed_links=frozenset(direct_links)),
            max_proxies=1,  # a single proxy cannot replace 4+ routes
            min_path_fraction=1.0,
            replan_rounds=0,
        )
        # Either a usable proxy plan exists (fine) or a clear error names
        # the problem; the planner must not silently plan through a dead
        # link.
        try:
            plan = planner.plan([spec])[0]
        except ConfigError as e:
            assert "failed link" in str(e)
        else:
            assert plan.strategy == "proxy"

    def test_validation(self, system128):
        with pytest.raises(ConfigError):
            ResilientPlanner(system128, min_path_fraction=0.0)
        with pytest.raises(ConfigError):
            ResilientPlanner(system128, replan_rounds=-1)


class TestRetryPolicy:
    def test_defaults_valid(self):
        p = RetryPolicy()
        assert p.max_retries == 3 and p.min_healthy_paths == 3

    @pytest.mark.parametrize(
        "kw",
        [
            {"max_retries": -1},
            {"backoff_base": -1.0},
            {"backoff_multiplier": 0.9},
            {"min_healthy_paths": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kw):
        with pytest.raises(ConfigError):
            RetryPolicy(**kw)


class TestFaultFreeIdentity:
    def test_outcome_identical_to_fault_blind(self, system128):
        specs = [TransferSpec(src=0, dst=127, nbytes=32 * MiB)]
        base = run_transfer(system128, specs, mode="auto")
        out = run_resilient_transfer(system128, specs)
        assert out.makespan == base.makespan
        assert out.mode_used == base.mode_used
        assert out.delivered_bytes == specs[0].nbytes
        t = out.telemetry
        assert (t.rounds, t.retries, t.failovers, t.bytes_resent) == (1, 0, 0, 0)
        # Byte-identical flow program: same flow ids, same timings.
        r0, rb = out.round_results[0], base.result
        assert list(r0.results) == list(rb.results)
        for fid, fr in r0.results.items():
            assert (fr.start, fr.finish, fr.size) == (
                rb[fid].start,
                rb[fid].finish,
                rb[fid].size,
            )

    def test_direct_regime_also_identical(self, system128):
        specs = [TransferSpec(src=0, dst=127, nbytes=4096)]
        base = run_transfer(system128, specs, mode="auto")
        out = run_resilient_transfer(system128, specs)
        assert out.makespan == base.makespan
        assert out.mode_used[(0, 127)] == "direct"


class TestResilientExecution:
    def make_scenario(self, system128):
        """The acceptance scenario: 4 proxies, 2 paths secretly at 25%."""
        spec = TransferSpec(src=0, dst=127, nbytes=32 * MiB)
        plan = TransferPlanner(system128, max_proxies=4).find_plan([(0, 127)])
        asg = plan.assignments[(0, 127)]
        assert asg.k == 4
        trace = degrade_paths(asg, (0, 1), 0.25)
        return spec, plan, trace

    def test_failover_beats_fault_blind_by_1p3x(self, system128):
        spec, plan, trace = self.make_scenario(system128)
        snap = trace.snapshot(0.0)
        blind = run_transfer(
            system128,
            [spec],
            mode="proxy",
            assignments=plan.assignments,
            capacity_fn=snap.capacity_fn(system128.capacity),
        )
        out = run_resilient_transfer(
            system128,
            [spec],
            trace=trace,
            planner=ResilientPlanner(system128, max_proxies=4),
        )
        assert out.delivered_bytes == spec.nbytes
        assert out.throughput >= 1.3 * blind.throughput
        t = out.telemetry
        assert t.retries >= 1
        assert t.failovers >= 2
        assert t.bytes_resent > 0
        failed = t.failed_attempts
        assert {a.proxy for a in failed} <= set(plan.assignments[(0, 127)].proxies)
        # Retry-round carriers avoided the degraded proxies.
        retry_ok = [a for a in t.attempts if a.round > 0 and a.verdict == "ok"]
        assert retry_ok and all(a.proxy not in {f.proxy for f in failed} for a in retry_ok)

    def test_short_transient_blip_rides_through(self, system128):
        # A brief degradation that lifts mid-round slows the transfer but
        # leaves the achieved delivery rate above the health threshold:
        # the rate rule deliberately avoids over-reacting, so no retry.
        spec = TransferSpec(src=0, dst=127, nbytes=32 * MiB)
        plan = TransferPlanner(system128, max_proxies=4).find_plan([(0, 127)])
        asg = plan.assignments[(0, 127)]
        trace = degrade_paths(asg, (0, 1, 2, 3), 0.05, start=0.0, end=0.012)
        pristine = run_resilient_transfer(
            system128, [spec], planner=ResilientPlanner(system128, max_proxies=4)
        )
        out = run_resilient_transfer(
            system128,
            [spec],
            trace=trace,
            planner=ResilientPlanner(system128, max_proxies=4),
        )
        assert out.delivered_bytes == spec.nbytes
        assert out.telemetry.retries == 0
        assert out.makespan > pristine.makespan

    def test_sustained_transient_fault_retries_and_recovers(self, system128):
        # Every proxy route is deeply degraded for a window outlasting
        # the first deadline: round 0 fails, the retry falls back and the
        # transfer still completes within the bounded retry budget.
        spec = TransferSpec(src=0, dst=127, nbytes=32 * MiB)
        plan = TransferPlanner(system128, max_proxies=4).find_plan([(0, 127)])
        asg = plan.assignments[(0, 127)]
        trace = degrade_paths(asg, (0, 1, 2, 3), 0.01, start=0.0, end=0.05)
        out = run_resilient_transfer(
            system128,
            [spec],
            trace=trace,
            planner=ResilientPlanner(system128, max_proxies=4),
        )
        assert out.delivered_bytes == spec.nbytes
        assert 1 <= out.telemetry.retries <= RetryPolicy().max_retries

    def test_hard_mid_transfer_failure_fails_over(self, system128):
        # Two proxy paths go hard-down mid-flight; the executor detects
        # the stall via deadlines and re-sends on the survivors.
        spec = TransferSpec(src=0, dst=127, nbytes=32 * MiB)
        plan = TransferPlanner(system128, max_proxies=4).find_plan([(0, 127)])
        asg = plan.assignments[(0, 127)]
        trace = degrade_paths(asg, (0, 1), 0.0, start=0.004)
        out = run_resilient_transfer(
            system128,
            [spec],
            trace=trace,
            planner=ResilientPlanner(system128, max_proxies=4),
        )
        assert out.delivered_bytes == spec.nbytes
        assert out.telemetry.failovers >= 2

    def test_degrades_to_direct_when_all_proxies_down(self, system128):
        # Degrade the entire torus to 10%: no proxy path can be believed
        # healthy after round 0, so the executor gracefully falls back to
        # a plain direct retry (which, degraded too, still completes once
        # the deadline adapts to the observed rate).
        spec = TransferSpec(src=0, dst=127, nbytes=32 * MiB)
        trace = FaultTrace(
            tuple(
                FaultEvent(link=l, factor=0.1)
                for l in range(system128.topology.nlinks)
            )
        )
        out = run_resilient_transfer(
            system128,
            [spec],
            trace=trace,
            planner=ResilientPlanner(system128, max_proxies=4),
        )
        assert out.delivered_bytes == spec.nbytes
        assert out.telemetry.degraded_to_direct >= 1
        last = [a for a in out.telemetry.attempts if a.verdict == "ok"][-1]
        assert last.proxy is None  # the direct path carried it home

    def test_aborts_after_max_retries(self, system128):
        # Everything — all proxy routes and the direct path — is dead
        # forever; the executor must give up loudly, with telemetry.
        spec = TransferSpec(src=0, dst=127, nbytes=1 * MiB)
        plan = TransferPlanner(system128, max_proxies=4).find_plan([(0, 127)])
        asg = plan.assignments[(0, 127)]
        links = set(system128.compute_path(0, 127).links)
        for j in range(asg.k):
            links.update(asg.phase1[j].links)
            links.update(asg.phase2[j].links)
        trace = FaultTrace(tuple(FaultEvent(link=l, factor=0.0) for l in sorted(links)))
        policy = RetryPolicy(max_retries=2)
        with pytest.raises(TransferAbortedError, match="retries") as ei:
            run_resilient_transfer(
                system128,
                [spec],
                trace=trace,
                policy=policy,
                planner=ResilientPlanner(system128, max_proxies=4),
            )
        telem = ei.value.telemetry
        assert telem is not None
        # Bounded retries: initial round + at most max_retries retry rounds.
        assert telem.rounds <= 1 + policy.max_retries

    def test_rejects_empty_specs(self, system128):
        with pytest.raises(ConfigError):
            run_resilient_transfer(system128, [])


class TestFaultAwareAggregation:
    def test_fault_free_plan_unchanged(self, system512):
        sizes = uniform_pattern(system512.nnodes, seed=7)
        a = plan_aggregation(system512, sizes)
        b = plan_aggregation(system512, sizes, faults=FaultModel())
        assert a.shipments == b.shipments
        assert a.aggregators == b.aggregators

    def test_aggregators_avoid_cordoned_nodes(self, system512):
        table = precompute_aggregators(system512)
        victims = frozenset(table[4][:4])
        faults = FaultModel(failed_nodes=victims)
        shifted = precompute_aggregators(system512, faults=faults)
        for count, aggs in shifted.items():
            assert not (set(aggs) & victims)
            # Picks stay unique as long as each pset has enough healthy
            # nodes; beyond that, healthy nodes host extra slots.
            expected_unique = sum(
                min(count, len(pset.nodes) - sum(v in pset.nodes for v in victims))
                for pset in system512.psets
            )
            assert len(set(aggs)) == expected_unique
        sizes = uniform_pattern(system512.nnodes, seed=7)
        plan = plan_aggregation(system512, sizes, faults=faults)
        assert not ({a for _, a, _ in plan.shipments} & victims)

    def test_failed_ion_link_gets_no_quota(self, system512):
        # Kill every 11th link of pset 0: its ION must absorb nothing.
        faults = FaultModel(
            failed_links=frozenset(
                system512.io_link_id(b) for b in system512.psets[0].bridges
            )
        )
        sizes = uniform_pattern(system512.nnodes, seed=7)
        plan = plan_aggregation(system512, sizes, faults=faults)
        assert plan.bytes_per_ion.get(0, 0.0) == 0.0
        assert plan.total_bytes == int(sum(sizes))

    def test_quota_follows_surviving_capacity(self, system512):
        # Halve pset 0's I/O capacity: it should absorb about half of an
        # equal share.
        faults = FaultModel(
            degraded_links={
                system512.io_link_id(b): 0.5 for b in system512.psets[0].bridges
            }
        )
        weights = pset_capacity_weights(system512, faults)
        assert weights[0] == pytest.approx(weights[1] / 2)
        sizes = uniform_pattern(system512.nnodes, seed=7)
        plan = plan_aggregation(system512, sizes, faults=faults)
        expected = plan.total_bytes * weights[0] / sum(weights)
        assert plan.bytes_per_ion[0] == pytest.approx(expected, rel=0.01)

    def test_all_io_dead_raises(self, system512):
        faults = FaultModel(
            failed_links=frozenset(
                system512.io_link_id(b)
                for p in system512.psets
                for b in p.bridges
            )
        )
        sizes = uniform_pattern(system512.nnodes, seed=7)
        with pytest.raises(ConfigError, match="I/O capacity"):
            plan_aggregation(system512, sizes, faults=faults)

    def test_run_io_movement_with_faults(self, system512):
        sizes = uniform_pattern(system512.nnodes, seed=7)
        faults = FaultModel(
            degraded_links={
                system512.io_link_id(b): 0.5 for b in system512.psets[0].bridges
            }
        )
        healthy = run_io_movement(system512, sizes, batch_tol=0.05)
        degraded = run_io_movement(system512, sizes, faults=faults, batch_tol=0.05)
        assert degraded.total_bytes == healthy.total_bytes
        # Adapted quotas keep the hit mild: nowhere near the 2x of a
        # blind plan gated by the half-speed ION.
        assert degraded.makespan < healthy.makespan * 1.5


class TestHealthProbation:
    def test_down_enters_probation_after_interval(self, system128):
        m = HealthMonitor(system128, reprobe_interval=0.01)
        m.mark_down((9,))
        assert m.path_verdict((9,)) == "down"
        assert not m.in_probation(9)
        m.advance(0.02)
        assert m.in_probation(9)
        assert m.path_verdict((9,)) == "probation"
        # A healthy link alongside doesn't mask the probing state.
        assert m.path_verdict((0, 9)) == "probation"

    def test_probation_disabled_by_default(self, system128):
        m = HealthMonitor(system128)
        m.mark_down((9,))
        m.advance(1e9)
        assert not m.in_probation(9)
        assert m.path_verdict((9,)) == "down"

    def test_positive_observation_clears_probation(self, system128):
        m = HealthMonitor(system128, reprobe_interval=0.01)
        m.mark_down((9,))
        m.advance(0.02)
        assert m.in_probation(9)
        m.observe((9,), system128.capacity(9))
        m.end_round()
        assert not m.in_probation(9)
        assert m.path_verdict((9,)) == "healthy"

    def test_re_mark_down_restarts_from_first_failure(self, system128):
        # mark_down while already down keeps the original down-since
        # stamp: flapping can't dodge probation by re-failing.
        m = HealthMonitor(system128, reprobe_interval=0.01)
        m.mark_down((9,))
        m.advance(0.008)
        m.mark_down((9,))
        m.advance(0.011)
        assert m.in_probation(9)

    def test_clock_never_rewinds(self, system128):
        m = HealthMonitor(system128, reprobe_interval=0.01)
        m.mark_down((9,))
        m.advance(0.02)
        m.advance(0.0)  # ignored
        assert m.in_probation(9)

    def test_bad_interval_rejected(self, system128):
        with pytest.raises(ConfigError, match="reprobe"):
            HealthMonitor(system128, reprobe_interval=0.0)


class TestFindReplacements:
    def test_replacements_avoid_links_and_excluded_nodes(self, system128):
        planner = ResilientPlanner(system128, max_proxies=4)
        base = planner.find_plan([(0, 127)])
        asg = base.assignments[(0, 127)]
        bad_links = frozenset(asg.phase1[0].links + asg.phase2[0].links)
        repl = planner.find_replacements(
            0, 127, 2, exclude=set(asg.proxies) | {0, 127}, avoid_links=bad_links
        )
        assert 1 <= repl.k <= 2
        for j in range(repl.k):
            assert repl.proxies[j] not in set(asg.proxies) | {0, 127}
            route = set(repl.phase1[j].links + repl.phase2[j].links)
            assert not (route & bad_links)

    def test_replacements_avoid_failure_domains(self, system128):
        from repro.torus.partition import link_failure_domains

        planner = ResilientPlanner(system128, max_proxies=4)
        base = planner.find_plan([(0, 127)])
        asg = base.assignments[(0, 127)]
        shape = system128.topology.shape
        bad_domains = link_failure_domains(asg.phase1[0].links[0], shape)
        assert bad_domains
        repl = planner.find_replacements(
            0, 127, 2, exclude={0, 127}, avoid_domains=bad_domains
        )
        for j in range(repl.k):
            for l in repl.phase1[j].links + repl.phase2[j].links:
                assert bad_domains.isdisjoint(link_failure_domains(l, shape))

    def test_empty_result_when_nothing_qualifies(self, system128):
        planner = ResilientPlanner(system128, max_proxies=4)
        all_links = frozenset(range(system128.topology.nlinks))
        repl = planner.find_replacements(0, 127, 2, avoid_links=all_links)
        assert repl.k == 0

    def test_n_must_be_positive(self, system128):
        with pytest.raises(ConfigError):
            ResilientPlanner(system128).find_replacements(0, 127, 0)


class TestPartialProgress:
    """Ledger-driven partial-progress recovery (the tentpole) plus the
    delivered-bytes double-count regression (satellite a)."""

    def hard_down_outcome(self, system128, start=0.004, **policy_kw):
        spec = TransferSpec(src=0, dst=127, nbytes=32 * MiB)
        plan = TransferPlanner(system128, max_proxies=4).find_plan([(0, 127)])
        asg = plan.assignments[(0, 127)]
        trace = degrade_paths(asg, (0, 1), 0.0, start=start)
        return run_resilient_transfer(
            system128,
            [spec],
            trace=trace,
            planner=ResilientPlanner(system128, max_proxies=4),
            policy=RetryPolicy(**policy_kw),
        ), spec

    def test_no_double_count_when_late_flow_completes(self, system128):
        # Regression: a carrier misses its deadline but its flow *does*
        # complete later in the same round.  The old executor credited
        # those bytes at completion and again after the full-share
        # re-send; the ledger credits each extent exactly once.
        spec = TransferSpec(src=0, dst=127, nbytes=32 * MiB)
        plan = TransferPlanner(system128, max_proxies=4).find_plan([(0, 127)])
        asg = plan.assignments[(0, 127)]
        trace = degrade_paths(asg, (0, 1), 0.01, start=0.0, end=0.05)
        out = run_resilient_transfer(
            system128,
            [spec],
            trace=trace,
            planner=ResilientPlanner(system128, max_proxies=4),
        )
        assert out.telemetry.retries >= 1
        assert out.delivered_bytes == spec.nbytes  # exactly, not >=
        (rep,) = out.integrity
        assert rep.complete and rep.duplicates == ()
        assert rep.delivered_bytes == spec.nbytes

    def test_outcome_carries_verified_ledger(self, system128):
        out, spec = self.hard_down_outcome(system128)
        assert out.complete and out.residue_bytes == 0
        led = out.ledgers[(0, 127)]
        rep = led.verify()
        assert rep.complete and rep.delivered_bytes == spec.nbytes

    def test_partial_progress_resends_less_than_full_retry(self, system128):
        # The kill lands *after* phase 2 starts, so the failed carriers
        # had already landed a prefix on the destination; only the tail
        # is outstanding.  (An early kill parks nothing at dst and the
        # two policies legitimately re-send the same amount.)
        partial, spec = self.hard_down_outcome(system128, start=0.008)
        full, _ = self.hard_down_outcome(
            system128, start=0.008, partial_progress=False
        )
        assert partial.delivered_bytes == full.delivered_bytes == spec.nbytes
        assert partial.telemetry.retries >= 1 and full.telemetry.retries >= 1
        # The ledger re-sends only outstanding extents; the fault-blind
        # policy re-sends every failed carrier's whole share.
        assert 0 < partial.telemetry.bytes_resent < full.telemetry.bytes_resent
        assert partial.telemetry.partial_credit_bytes > 0

    def test_parked_bytes_redriven_from_proxy(self, system128):
        # Kill only the *phase-2* legs mid-flight: phase 1 keeps landing
        # data on the proxies, and... nothing moves on.  Kill *phase-1*
        # legs instead and the store-and-forward gap parks at the proxy:
        # those extents are redriven proxy->dst, never re-sent from src.
        spec = TransferSpec(src=0, dst=127, nbytes=32 * MiB)
        plan = TransferPlanner(system128, max_proxies=4).find_plan([(0, 127)])
        asg = plan.assignments[(0, 127)]
        links = set()
        for j in (0, 1):
            links.update(asg.phase1[j].links)
        trace = FaultTrace(
            tuple(FaultEvent(link=l, factor=0.0, start=0.004) for l in sorted(links))
        )
        out = run_resilient_transfer(
            system128,
            [spec],
            trace=trace,
            planner=ResilientPlanner(system128, max_proxies=4),
        )
        assert out.delivered_bytes == spec.nbytes
        assert out.telemetry.bytes_redriven > 0
        assert out.telemetry.bytes_resent < spec.nbytes
        (rep,) = out.integrity
        assert rep.complete and rep.duplicates == ()

    def test_policy_knob_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(chunk_bytes=0)
        with pytest.raises(ConfigError):
            RetryPolicy(budget_s=0.0)
        with pytest.raises(ConfigError):
            RetryPolicy(reprobe_interval=-1.0)


class TestDeadlineBudget:
    def dead_world(self, system128, nbytes=1 * MiB):
        spec = TransferSpec(src=0, dst=127, nbytes=nbytes)
        plan = TransferPlanner(system128, max_proxies=4).find_plan([(0, 127)])
        asg = plan.assignments[(0, 127)]
        links = set(system128.compute_path(0, 127).links)
        for j in range(asg.k):
            links.update(asg.phase1[j].links)
            links.update(asg.phase2[j].links)
        trace = FaultTrace(tuple(FaultEvent(link=l, factor=0.0) for l in sorted(links)))
        return spec, trace

    def test_budget_degrades_to_best_effort_instead_of_raising(self, system128):
        spec, trace = self.dead_world(system128)
        policy = RetryPolicy(max_retries=2, budget_s=0.05)
        out = run_resilient_transfer(
            system128,
            [spec],
            trace=trace,
            policy=policy,
            planner=ResilientPlanner(system128, max_proxies=4),
        )
        assert not out.complete
        assert out.telemetry.budget_exhausted
        assert out.residue_bytes > 0
        assert out.delivered_bytes + out.residue_bytes == spec.nbytes
        (rep,) = out.integrity
        assert not rep.complete and rep.duplicates == ()
        # Recovery never starts past the budget; round 0's own deadline
        # is the only part that may exceed it.
        assert out.makespan <= 1.2 * policy.budget_s

    def test_without_budget_same_scenario_raises(self, system128):
        spec, trace = self.dead_world(system128)
        with pytest.raises(TransferAbortedError):
            run_resilient_transfer(
                system128,
                [spec],
                trace=trace,
                policy=RetryPolicy(max_retries=2),
                planner=ResilientPlanner(system128, max_proxies=4),
            )

    def test_budget_is_inert_when_fault_free(self, system128):
        specs = [TransferSpec(src=0, dst=127, nbytes=32 * MiB)]
        base = run_transfer(system128, specs, mode="auto")
        out = run_resilient_transfer(
            system128, [specs[0]], policy=RetryPolicy(budget_s=10.0)
        )
        assert out.makespan == base.makespan
        assert out.complete and not out.telemetry.budget_exhausted

    def test_generous_budget_still_completes_recoverable_fault(self, system128):
        spec = TransferSpec(src=0, dst=127, nbytes=32 * MiB)
        plan = TransferPlanner(system128, max_proxies=4).find_plan([(0, 127)])
        asg = plan.assignments[(0, 127)]
        links = set()
        for j in (0, 1):
            links.update(asg.phase1[j].links)
        trace = FaultTrace(
            tuple(FaultEvent(link=l, factor=0.0, start=0.004) for l in sorted(links))
        )
        out = run_resilient_transfer(
            system128,
            [spec],
            trace=trace,
            policy=RetryPolicy(budget_s=0.25),
            planner=ResilientPlanner(system128, max_proxies=4),
        )
        assert out.complete
        assert out.delivered_bytes == spec.nbytes
        assert out.makespan < 0.25
