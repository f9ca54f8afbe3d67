"""One engine rule behind every transfer API.

:func:`repro.mpi.program.run_programs` runs exact programs below the solo
engine's incremental threshold that arrive together as one
:class:`~repro.network.batchsim.BatchFlowSim` batch, and every other
program alone through :meth:`FlowProgram.run`.  Below the threshold the
two engines return the same bytes, so a transfer's result must not depend
on which API or which batch carried it — and at or above the threshold a
program keeps the solo engine's incremental re-solve wherever it goes.

Both engines share the capacity lookup: a link the capacity map cannot
price is a :class:`ConfigError` naming the first flow routed across it.
"""

import pytest

from repro.core.model import TransferModel
from repro.core.multipath import (
    TransferSpec,
    emit_transfer_set,
    run_transfer,
    run_transfer_many,
)
from repro.core.proxy_select import find_proxies
from repro.machine import mira_system
from repro.mpi.comm import SimComm
from repro.mpi.program import FlowProgram, run_programs
from repro.network.batchsim import BatchFlowSim
from repro.network.flow import Flow
from repro.network.flowsim import _INC_AUTO_MIN, CapacityEvent, FlowSim
from repro.network.params import MIRA_PARAMS
from repro.obs.metrics import TimeSeriesProbe, get_registry
from repro.util.validation import ConfigError, LinkDownError

MiB = 1 << 20
SYSTEM = mira_system(nnodes=512)
MIN_PROXIES = TransferModel.MIN_BENEFICIAL_PROXIES

#: Scenarios of one ``run_transfer_many`` call: two small programs that
#: batch together, and 48 pairs whose program is above the threshold.
SETS = {
    "small": [
        TransferSpec(src=0, dst=511, nbytes=8 * MiB),
        TransferSpec(src=3, dst=300, nbytes=2 * MiB),
    ],
    "other": [TransferSpec(src=17, dst=200, nbytes=4 * MiB)],
    "large": [TransferSpec(src=i, dst=511 - i, nbytes=8 * MiB) for i in range(48)],
}


def _alone(specs, mode="auto") -> FlowProgram:
    """``specs`` planned and emitted as :func:`run_transfer` does it."""
    plan = find_proxies(
        SYSTEM, [(s.src, s.dst) for s in specs],
        max_proxies=None, min_proxies=MIN_PROXIES, max_offset=3,
    )
    prog = FlowProgram(SimComm(SYSTEM))
    emit_transfer_set(
        prog, specs, plan.assignments, mode, MIN_PROXIES, TransferModel(SYSTEM.params)
    )
    return prog


def _same(a, b) -> None:
    assert a.results == b.results
    assert a.makespan == b.makespan
    assert a.link_bytes == b.link_bytes


def _counters():
    return dict(get_registry().snapshot()["counters"])


def _delta(before, after, name):
    return after.get(name, 0) - before.get(name, 0)


@pytest.fixture(scope="module")
def many():
    """Every scenario through one call, with the counters it moved."""
    before = _counters()
    outs = run_transfer_many(SYSTEM, list(SETS.values()))
    return dict(zip(SETS, outs)), before, _counters()


def test_program_sizes_straddle_the_threshold():
    assert len(_alone(SETS["small"]).columns) < _INC_AUTO_MIN
    assert len(_alone(SETS["other"]).columns) < _INC_AUTO_MIN
    assert len(_alone(SETS["large"]).columns) >= _INC_AUTO_MIN


@pytest.mark.parametrize("name", ["small", "large"])
def test_result_is_the_same_alone_single_and_batched(name, many):
    alone = _alone(SETS[name]).run()
    _same(run_transfer(SYSTEM, SETS[name]).result, alone)
    outs, _, _ = many
    _same(outs[name].result, alone)


def test_small_programs_batch_and_a_large_one_runs_alone(many):
    _, before, after = many
    assert _delta(before, after, "flowsim.batch_runs") == 1
    assert _delta(before, after, "flowsim.batch_scenarios") == 2
    assert _delta(before, after, "flowsim.runs") == 1


def test_a_lone_program_runs_on_the_solo_engine():
    before = _counters()
    run_transfer_many(SYSTEM, [SETS["small"]])
    after = _counters()
    assert _delta(before, after, "flowsim.runs") == 1
    assert _delta(before, after, "flowsim.batch_runs") == 0


def test_hard_down_error_is_the_same_alone_and_in_a_batch():
    prog = _alone(SETS["small"], mode="direct")
    link = prog.columns.path[0][0]
    down = [CapacityEvent(time=0.1 * prog.run().makespan, link=link, capacity=0.0)]
    lone = run_transfer_many(
        SYSTEM, [SETS["small"]], mode="direct", events=[down], on_error="capture"
    )[0]
    batched = run_transfer_many(
        SYSTEM, [SETS["small"], SETS["other"]], mode="direct",
        events=[down, None], on_error="capture",
    )
    assert type(lone) is LinkDownError
    assert type(batched[0]) is LinkDownError
    assert str(lone) == str(batched[0])
    assert batched[1].makespan > 0
    with pytest.raises(LinkDownError, match=str(link)):
        run_transfer_many(SYSTEM, [SETS["small"]], mode="direct", events=[down])


@pytest.mark.parametrize("setting", ["probe", "fair_tol"])
def test_a_probed_or_approximate_program_runs_alone(setting):
    special = _alone(SETS["other"])
    if setting == "probe":
        special.probe = TimeSeriesProbe(interval=1e-4)
    else:
        special.fair_tol = 0.02
    before = _counters()
    results = run_programs([special, _alone(SETS["small"])])
    after = _counters()
    assert _delta(before, after, "flowsim.runs") == 2
    assert _delta(before, after, "flowsim.batch_runs") == 0
    if setting == "probe":
        assert special.probe.times()
    _same(results[1], _alone(SETS["small"]).run())


def test_run_programs_checks_its_arguments():
    progs = [_alone(SETS["small"]), _alone(SETS["other"])]
    with pytest.raises(ConfigError, match="events must align"):
        run_programs(progs, events=[None])
    with pytest.raises(ConfigError, match="cutoffs must align"):
        run_programs(progs, cutoffs=[None, None, None])
    with pytest.raises(ConfigError, match="on_error"):
        run_programs(progs, on_error="ignore")


# ---------------------------------------------------------------- capacities

#: Capacity maps that cannot price link 1, each failing its own way.
BAD_LOOKUPS = {
    "missing-key": ({0: 1e9}, "KeyError"),
    "returns-none": (lambda link: 1e9 if link == 0 else None, "TypeError"),
    "not-a-number": (lambda link: 1e9 if link == 0 else "fast", "ValueError"),
}
ENGINES = {
    "solo": lambda caps, flows: FlowSim(caps, MIRA_PARAMS).run(flows),
    "batch": lambda caps, flows: BatchFlowSim(MIRA_PARAMS).simulate_many(
        [(caps, flows)]
    ),
}


@pytest.mark.parametrize("engine", list(ENGINES))
@pytest.mark.parametrize("case", list(BAD_LOOKUPS))
def test_capacity_lookup_failure_names_the_first_flow_on_the_link(engine, case):
    caps, cause = BAD_LOOKUPS[case]
    flows = [
        Flow("a", 10.0, (0,)),
        Flow("b", 10.0, (0, 1)),
        Flow("c", 10.0, (1,)),
    ]
    with pytest.raises(
        ConfigError, match=rf"flow 'b': route crosses link 1, .*\({cause}"
    ):
        ENGINES[engine](caps, flows)
