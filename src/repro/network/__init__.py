"""Network simulators and performance models.

Two complementary simulators share the same topology/link abstractions:

* :class:`repro.network.flowsim.FlowSim` — a fluid, flow-level
  discrete-event simulator.  Concurrent transfers are fluid flows that
  receive **max-min fair** shares of every directed link they traverse
  (progressive filling); events fire at flow activations and completions.
  This is the workhorse for all paper experiments: RDMA bulk transfers on
  a torus are long-lived and bandwidth-bound, exactly the regime where
  fluid fair-sharing models are accurate.

* :class:`repro.network.packetsim.PacketSim` — a packet-level simulator
  with per-link FIFOs and cut-through arbitration, used on small
  configurations to cross-validate the fluid model's contention behaviour
  (tests assert the two agree on who-shares-what).

:mod:`repro.network.params` holds the calibrated Mira constants, among
them the per-message Messaging-Unit costs ``o_msg``/``o_fwd`` that
``FlowProgram`` and :mod:`repro.core.model` charge (the source of the
paper's Eq. 4 threshold behaviour), and :mod:`repro.network.congestion`
a closed-form makespan bound the tests check the fluid simulator against.
"""

from repro.network.params import NetworkParams, MIRA_PARAMS
from repro.network.flow import Flow, FlowResult
from repro.network.flowsim import FlowSim, FlowSimResult, uniform_capacities
from repro.network.congestion import congestion_makespan
from repro.network.packet import Packet
from repro.network.packetsim import PacketSim, PacketSimResult

__all__ = [
    "NetworkParams",
    "MIRA_PARAMS",
    "Flow",
    "FlowResult",
    "FlowSim",
    "FlowSimResult",
    "uniform_capacities",
    "congestion_makespan",
    "Packet",
    "PacketSim",
    "PacketSimResult",
]
