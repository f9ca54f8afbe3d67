"""One transfer path for every caller.

A service worker (:func:`~repro.service.scenarios.execute_request`) and
``repro batch`` (:func:`~repro.service.batch.run_batch`) build transfer
payloads with the same function, so they must agree byte for byte — on
plain, fault-traced and corruption-injected requests, with and without a
per-request proxy cap.  Each checksum below pins one payload; a change
to any of them is a change of behaviour.

:func:`~repro.resilience.executor.run_resilient_transfer_many` hands
``max_proxies`` to every scenario's fault-aware planner.
"""

import json

import pytest

from repro.core.multipath import TransferSpec
from repro.machine import mira_system
from repro.machine.faults import FaultEvent, FaultTrace
from repro.resilience import ResilientPlanner, run_resilient_transfer
from repro.resilience.executor import run_resilient_transfer_many
from repro.service.batch import run_batch
from repro.service.scenarios import execute_request
from repro.util.checksum import canonical_json, payload_checksum

MiB = 1 << 20

BASE = {"nnodes": 64, "nbytes": 4 * MiB}
VARIANTS = {"plain": {}, "fault": {"fault_seed": 7}, "sdc": {"sdc_seed": 18}}
CAPS = {"nocap": {}, "cap2": {"max_proxies": 2}}

PINNED = {
    "p2p-plain-nocap": "98ff34bd01095479a06ddf24670997236e76427b60a1f82bf506101230699b4b",
    "p2p-plain-cap2": "07611e328925f50edeb8cef08aa30f50448a24ff355d728f7cb8d84a16da7d9b",
    "p2p-fault-nocap": "c180be26e63f8cb55176a763d8eedaa244423c59dd1507cd20bf5ec8e54bdb6b",
    "p2p-fault-cap2": "776492f2d790dbfc1f8075e4cff47b9b3589bfa91aaf99399233f57babcf3f2e",
    "p2p-sdc-nocap": "14499feaf6b25cd30bd05dfe44e0223102c37fa1887e9bc232e18bc8efb0fea9",
    "p2p-sdc-cap2": "f5a7bd83aaaf399625ceee59016569347eb54c693ce66585bd565cf218ddd04d",
    "group-plain-nocap": "f9f6949fe310a183d3e0b81719fd4ecba8a3776f07f4a0561494c136899e05fe",
    "group-plain-cap2": "789f3fb1a424c57263e0b4b7f702f7e403cf3241f376132b08dec8b5b705c059",
    "group-fault-nocap": "8591af3eb8ad67e3850eccaf276353c1486aac7b44c43f655f595f573bb8dfec",
    "group-fault-cap2": "85368a58dea946ee416e123d96f2f4e4163612852b842dc7ddcb6ddfeb975a15",
    "group-sdc-nocap": "29896f34a4c63356646e3f18b76a31fdf6eb1cb76f14b22acceee6a3a5760e09",
    "group-sdc-cap2": "5c63826e2020ffbb65b85640a23e50326c228659319c32e6fc7c30724d2a8455",
    "fanin-plain-nocap": "d8e1cd6ea4932d0e5b3afe7bb39ce6c260ffafd24ad321d3c3d5cae9b3f63d33",
    "fanin-plain-cap2": "024df907f5c845619a879643fa0bfae081de421868c848b423aebc2520ba7cfd",
    "fanin-fault-nocap": "119b920d9b82ef0927f157a17935c92c29dd05354e82cd0401369d35a354d8bf",
    "fanin-fault-cap2": "131055b3f419cca90a17fa399107c7b24ef5420430a5715b3cc610eff78e459a",
    "fanin-sdc-nocap": "275f80037a70f9bff4e84f3eb3026c6fe36e97aae6199cfdbafef0bfcc0e87cb",
    "fanin-sdc-cap2": "c98c30ac55d51d3f5f412470c449d0ffed708d3c7a5dc141b69bb60ebf4a1e38",
}


def _request(case: str) -> "tuple[str, dict]":
    kind, variant, cap = case.split("-")
    return kind, {**BASE, **VARIANTS[variant], **CAPS[cap]}


@pytest.fixture(scope="module")
def batch_payloads(tmp_path_factory):
    work = tmp_path_factory.mktemp("transfer-path")
    scenarios = []
    for case in PINNED:
        kind, params = _request(case)
        scenarios.append({"id": case, "kind": kind, "params": params})
    campaign = {"campaign": "campaign/1", "name": "pin", "scenarios": scenarios}
    (work / "campaign.json").write_text(json.dumps(campaign))
    run_batch(work / "campaign.json", work / "results.json")
    doc = json.loads((work / "results.json").read_text())
    return {r["id"]: r["payload"] for r in doc["results"]}


@pytest.mark.parametrize("case", list(PINNED))
def test_worker_and_batch_payloads_agree(case, batch_payloads):
    kind, params = _request(case)
    payload, _, _ = execute_request(kind, params)
    assert canonical_json(payload) == canonical_json(batch_payloads[case])
    assert payload_checksum(payload) == PINNED[case]


SYSTEM = mira_system(nnodes=128)
SPECS = [TransferSpec(src=0, dst=127, nbytes=8 * MiB)]
#: A fault far past the transfer's end: the executor watches for it
#: without it touching the run's physics.
LATE_FAULT = FaultTrace((FaultEvent(link=0, factor=0.5, start=10.0),))


def test_resilient_route_honours_max_proxies():
    free = run_resilient_transfer_many(SYSTEM, [SPECS], traces=[LATE_FAULT])[0]
    capped = run_resilient_transfer_many(
        SYSTEM, [SPECS], traces=[LATE_FAULT], max_proxies=3
    )[0]
    assert free.mode_used[(0, 127)] == "proxy:5"
    assert capped.mode_used[(0, 127)] == "proxy:3"
    alone = run_resilient_transfer(
        SYSTEM, SPECS, trace=LATE_FAULT,
        planner=ResilientPlanner(SYSTEM, max_proxies=3),
    )
    assert capped.makespan == alone.makespan
    assert capped.mode_used == alone.mode_used
