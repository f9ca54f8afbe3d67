"""Per-layer self-time tracer of the end-to-end benchmark.

The benchmark measures the program from outside: it wraps the public
functions of each layer at run time and edits nothing under ``src/``.
:data:`LAYERS` names the functions that belong to each layer.  While a
:class:`LayerTracer` is installed, every call into one of them opens a
span on a stack; when the call returns, the layer is charged the span's
duration minus the time its child spans covered (its *self* time), so the
self times of all layers plus the unattributed rest add up to the wall
time of the traced code.  Spans are aggregated in memory per layer.

Only the thread that installed the tracer is traced: calls from other
threads (the scenario service's supervisor, for one) pass straight
through, so self times never overlap.

``from x import f`` copies are common in this code base, so a function is
replaced at *every* binding that holds it: its defining module or class
and every module in ``sys.modules`` that holds the identical object.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable

#: Layer name -> the functions that belong to it, as ``module:qualname``.
LAYERS: "dict[str, tuple[str, ...]]" = {
    "inputs": (
        "repro.machine.mira:mira_system",
        "repro.torus.mapping:RankMapping.__init__",
        "repro.workloads.sparse:uniform_pattern",
        "repro.workloads.sparse:pareto_pattern",
        "repro.workloads.hacc:hacc_io_sizes",
        "repro.workloads.coupling:corner_groups",
        "repro.workloads.coupling:pairwise_transfers",
        "repro.resilience.chaos:geometry_specs",
    ),
    "routing": (
        "repro.routing.deterministic:route",
        "repro.routing.deterministic:DimOrderRouter.path",
        "repro.routing.deterministic:DimOrderRouter.paths",
    ),
    "plan.proxy": (
        "repro.core.proxy_select:find_proxies",
        "repro.core.proxy_select:find_proxies_for_pair",
        "repro.core.proxy_select:forced_assignment",
        "repro.core.planner:TransferPlanner.find_plan",
        "repro.resilience.planner:ResilientPlanner.find_replacements",
    ),
    "plan.io": (
        "repro.core.aggregation:plan_aggregation",
        "repro.mpi.mpiio:plan_collective_write",
    ),
    "build": (
        "repro.mpi.program:FlowProgram.iput",
        "repro.mpi.program:FlowProgram.iput_nodes",
        "repro.mpi.program:FlowProgram.iwrite_ion",
        "repro.mpi.program:FlowProgram.event",
        "repro.mpi.program:FlowProgram.barrier",
        "repro.core.aggregation:aggregation_flows",
        "repro.mpi.mpiio:collective_write_flows",
        "repro.core.multipath:build_multipath_flows_detailed",
        "repro.core.multipath:build_direct_flows",
    ),
    "flowsim": ("repro.network.flowsim:FlowSim.run",),
    "flowsim.waterfill": ("repro.network.flowsim:waterfill_csr",),
    "batchsim": ("repro.network.batchsim:BatchFlowSim.simulate_many",),
    "batchsim.waterfill": ("repro.network.batchsim:_waterfill_blocks",),
    "resilience.executor": (
        "repro.resilience.executor:run_resilient_transfer",
        "repro.resilience.executor:run_resilient_transfer_many",
    ),
    "resilience.ledger": (
        "repro.resilience.ledger:TransferLedger.seal",
        "repro.resilience.ledger:TransferLedger.credit_at_proxy",
        "repro.resilience.ledger:TransferLedger.release_proxy",
        "repro.resilience.ledger:TransferLedger.credit_delivered",
        "repro.resilience.ledger:TransferLedger.credit_received",
        "repro.resilience.ledger:TransferLedger.verify",
    ),
    "checksum": (
        "repro.util.checksum:canonical_json",
        "repro.util.checksum:payload_checksum",
        "repro.util.checksum:extent_checksum",
        "repro.util.checksum:stable_unit",
    ),
    "persist": (
        "repro.service.journal:Journal.append",
        "repro.util.atomicio:atomic_write_json",
    ),
}


def _resolve(target: str) -> "tuple[object, str]":
    """``module:Class.attr`` -> (owner object, attribute name)."""
    module, _, qualname = target.partition(":")
    owner: object = importlib.import_module(module)
    *parents, attr = qualname.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _module_bindings() -> "dict[int, list[tuple[object, str]]]":
    """id(value) -> every (module, name) in ``sys.modules`` bound to it."""
    index: "dict[int, list[tuple[object, str]]]" = {}
    for mod in list(sys.modules.values()):
        namespace = getattr(mod, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if callable(value):
                index.setdefault(id(value), []).append((mod, name))
    return index


def patch_everywhere(
    targets: "list[tuple[str, Callable[[Callable], Callable]]]",
) -> Callable[[], None]:
    """Replace each ``(target, wrap)`` function by ``wrap(function)`` at
    every binding that holds it; returns the function that undoes it.

    The function wrapped is whatever the target's owner holds *now*, so
    patches stack: a later patch wraps an earlier one, and undoing it
    restores the earlier one.
    """
    index = _module_bindings()
    restore: "list[tuple[object, str, Callable, Callable]]" = []
    for target, wrap in targets:
        owner, attr = _resolve(target)
        current = vars(owner)[attr]
        wrapper = wrap(current)
        sites = {(id(owner), attr): (owner, attr)}
        for mod, name in index.get(id(current), ()):
            sites.setdefault((id(mod), name), (mod, name))
        for obj, name in sites.values():
            setattr(obj, name, wrapper)
            restore.append((obj, name, current, wrapper))

    def undo() -> None:
        for obj, name, original, _ in reversed(restore):
            setattr(obj, name, original)
        # Modules imported while patched copied the wrapper; restore them too.
        index = _module_bindings()
        for _, _, original, wrapper in restore:
            for mod, name in index.get(id(wrapper), ()):
                setattr(mod, name, original)

    return undo


class LayerTracer:
    """Aggregates calls and self time per layer while installed.

    Use as a context manager around the traced code; ``calls`` and
    ``self_s`` accumulate across installs.
    """

    def __init__(self):
        self.calls = {name: 0 for name in LAYERS}
        self.self_s = {name: 0.0 for name in LAYERS}
        self._stack: "list[float]" = []
        self._thread = 0
        self._undo: "Callable[[], None] | None" = None

    def _wrap(self, layer: str) -> Callable[[Callable], Callable]:
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def wrap(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if threading.get_ident() != self._thread:
                    return fn(*args, **kwargs)
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span = clock() - t0
                    children = stack.pop()
                    calls[layer] += 1
                    self_s[layer] += span - children
                    if stack:
                        stack[-1] += span

            return traced

        return wrap

    def __enter__(self) -> "LayerTracer":
        self._thread = threading.get_ident()
        self._undo = patch_everywhere(
            [
                (target, self._wrap(layer))
                for layer, targets in LAYERS.items()
                for target in targets
            ]
        )
        return self

    def __exit__(self, *exc) -> None:
        if self._undo is not None:
            self._undo()
            self._undo = None
