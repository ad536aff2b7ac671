"""CommBench DRR benchmark (Benchmark II of the paper).

DRR (Deficit Round Robin) is the fair packet-scheduling algorithm used
for bandwidth scheduling on network links (paper, Section 2.5:
"computation intensive").  Our kernel models a switch line card:

1. *Classification / enqueue*: each arriving packet is hashed on its
   source/destination addresses, looked up in a direct-indexed flow table
   (32 KB of flow records -- the structure whose reuse makes DRR sensitive
   to the data-cache size), its per-flow counters are updated and its
   length is appended to the flow's queue.
2. *Service*: the deficit-round-robin loop visits the flows in round
   robin order, adds the quantum to the flow's deficit counter and
   dequeues packets while they fit, zeroing the deficit when a queue
   empties (the classic DRR rule).

The simulated program and the Python reference share every arithmetic
detail (32-bit wrapping hash, table aliasing, deficit bookkeeping), so
verification is bit exact: total packets and bytes served, per-flow byte
counts and the number of service rounds all have to match.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.isa.assembler import Assembler
from repro.isa.program import MemoryLayout, Program
from repro.microarch.functional import SimulationResult
from repro.workloads.base import Workload
from repro.workloads.data import make_packet_trace

__all__ = ["DrrWorkload"]

_MASK32 = 0xFFFFFFFF
#: Knuth's multiplicative hash constant (2654435761).
_HASH_CONSTANT = 0x9E3779B1


class DrrWorkload(Workload):
    """Deficit-round-robin scheduling with hash-based flow classification."""

    name = "drr"
    description = "CommBench DRR: deficit round robin fair scheduling with flow classification"
    characterization = "computation intensive with a large reused flow table"

    #: Number of scheduling flows (power of two).
    FLOWS = 16
    #: Flow-table entries (power of two); each entry is 16 bytes.
    TABLE_ENTRIES = 2048
    #: Per-flow queue capacity in packets (power of two so addresses use shifts).
    QUEUE_CAPACITY = 4096
    #: DRR quantum in bytes; must be >= the maximum packet length.
    QUANTUM = 1500

    def __init__(self, packet_count: int = 3000, seed: int = 77, **kwargs):
        super().__init__(**kwargs)
        if packet_count < 1 or packet_count > self.QUEUE_CAPACITY:
            raise ValueError(f"packet_count must be in 1..{self.QUEUE_CAPACITY}")
        self.packet_count = packet_count
        self.seed = seed
        trace = make_packet_trace(packet_count, flow_count=self.FLOWS, seed=seed)
        self._sources = [int(v) for v in trace.source_addresses]
        self._destinations = [int(v) for v in trace.destination_addresses]
        self._lengths = [int(v) for v in trace.lengths]

    # -- shared model of the classification stage -------------------------------------------

    def _classify(self) -> List[int]:
        """Flow id of every packet, replicating the program's hash/table behaviour."""
        table_keys = [0] * self.TABLE_ENTRIES
        table_flows = [0] * self.TABLE_ENTRIES
        flows: List[int] = []
        for src, dst in zip(self._sources, self._destinations):
            x = (src ^ dst) & _MASK32
            h = (x * _HASH_CONSTANT) & _MASK32
            index = (h >> 16) & (self.TABLE_ENTRIES - 1)
            if table_keys[index] != x:
                table_keys[index] = x
                table_flows[index] = (h >> 8) & (self.FLOWS - 1)
            flows.append(table_flows[index])
        return flows

    # -- program -----------------------------------------------------------------------------

    def build_program(self) -> Program:
        flows = self.FLOWS
        entries = self.TABLE_ENTRIES
        qcap_shift = 14  # QUEUE_CAPACITY * 4 bytes == 2**14
        assert self.QUEUE_CAPACITY * 4 == 1 << qcap_shift

        layout = MemoryLayout(memory_size=0x0020_0000)
        asm = Assembler(self.name, layout=layout)

        # ---- data segment ---------------------------------------------------------------
        asm.data_label("results")
        asm.word_data([0, 0, 0])                       # packets served, bytes served, rounds
        asm.data_label("flow_state")
        asm.word_data([0] * flows)                     # +0   : count per flow
        asm.word_data([0] * flows)                     # +64  : head per flow
        asm.word_data([0] * flows)                     # +128 : deficit per flow
        asm.word_data([0] * flows)                     # +192 : served bytes per flow
        asm.data_label("input")
        for src, dst, length in zip(self._sources, self._destinations, self._lengths):
            asm.word_data([src, dst, length])
        asm.data_label("table")
        asm.zeros(entries * 16)
        asm.data_label("queues")
        asm.zeros(flows * self.QUEUE_CAPACITY * 4)

        # ---- main --------------------------------------------------------------------------
        asm.label("start")
        asm.set("g1", "table")
        asm.set("g2", "queues")
        asm.set("g3", "flow_state")
        asm.set("g4", "input")
        asm.set("g6", self.packet_count)
        asm.set("g7", _HASH_CONSTANT)
        asm.call("enqueue_phase")
        asm.call("service_phase")
        asm.halt()

        # ---- classification + enqueue ---------------------------------------------------------
        asm.label("enqueue_phase")
        asm.save(96)
        asm.set("l0", 0)                     # packet index
        asm.mov("l1", "g4")                  # input pointer
        asm.label("enq_loop")
        asm.cmp("l0", "g6")
        asm.be("enq_done")
        asm.ld("l3", "l1", 0)                # src
        asm.ld("o0", "l1", 4)                # dst
        asm.ld("l2", "l1", 8)                # length
        asm.xor("l3", "l3", "o0")            # x = src ^ dst
        asm.umul("l4", "l3", "g7")           # h = x * KNUTH (32-bit wrap)
        asm.srl("o0", "l4", 16)
        asm.and_("o0", "o0", entries - 1)    # table index
        asm.sll("o0", "o0", 4)
        asm.add("o0", "g1", "o0")            # entry address
        asm.ld("o1", "o0", 0)                # stored key
        asm.cmp("o1", "l3")
        asm.be("probe_hit")
        asm.st("l3", "o0", 0)                # install key
        asm.srl("o1", "l4", 8)
        asm.and_("o1", "o1", flows - 1)
        asm.st("o1", "o0", 4)                # flow id
        asm.st("g0", "o0", 8)                # packet counter
        asm.st("g0", "o0", 12)               # byte counter
        asm.label("probe_hit")
        asm.ld("l5", "o0", 4)                # flow id
        asm.ld("o1", "o0", 8)
        asm.add("o1", "o1", 1)
        asm.st("o1", "o0", 8)                # per-flow packet counter
        asm.ld("o1", "o0", 12)
        asm.add("o1", "o1", "l2")
        asm.st("o1", "o0", 12)               # per-flow byte counter
        # append the packet length to the flow's queue
        asm.sll("o2", "l5", 2)
        asm.ld("o1", "g3", "o2")             # count[flow] (flow_state + flow*4)
        asm.sll("o3", "l5", qcap_shift)
        asm.sll("o4", "o1", 2)
        asm.add("o3", "o3", "o4")
        asm.add("o3", "g2", "o3")
        asm.st("l2", "o3", 0)                # queue[flow][count] = length
        asm.add("o1", "o1", 1)
        asm.st("o1", "g3", "o2")             # count[flow] += 1
        asm.add("l1", "l1", 12)
        asm.add("l0", "l0", 1)
        asm.ba("enq_loop")
        asm.label("enq_done")
        asm.ret()

        # ---- deficit round robin service --------------------------------------------------------
        asm.label("service_phase")
        asm.save(96)
        asm.set("l0", 0)                     # packets served
        asm.set("l6", 0)                     # rounds
        asm.label("round_loop")
        asm.cmp("l0", "g6")
        asm.be("service_done")
        asm.add("l6", "l6", 1)
        asm.set("l1", 0)                     # flow index
        asm.label("flow_loop")
        asm.sll("o0", "l1", 2)               # flow * 4
        asm.ld("l2", "g3", "o0")             # count[flow]
        asm.add("o1", "o0", 64)
        asm.ld("l3", "g3", "o1")             # head[flow]
        asm.cmp("l3", "l2")
        asm.be("next_flow")                  # nothing queued
        asm.add("o1", "o0", 128)
        asm.ld("l4", "g3", "o1")             # deficit[flow]
        asm.set("o2", self.QUANTUM)
        asm.add("l4", "l4", "o2")
        asm.label("dequeue_loop")
        asm.cmp("l3", "l2")
        asm.be("flow_emptied")
        asm.sll("o2", "l1", qcap_shift)
        asm.sll("o3", "l3", 2)
        asm.add("o2", "o2", "o3")
        asm.ld("l5", "g2", "o2")             # head packet length
        asm.cmp("l5", "l4")
        asm.bg("dequeue_done")               # does not fit in the deficit
        asm.sub("l4", "l4", "l5")
        asm.add("o1", "o0", 192)
        asm.ld("o3", "g3", "o1")
        asm.add("o3", "o3", "l5")
        asm.st("o3", "g3", "o1")             # served_bytes[flow] += length
        asm.add("l3", "l3", 1)
        asm.add("l0", "l0", 1)
        asm.ba("dequeue_loop")
        asm.label("flow_emptied")
        asm.set("l4", 0)                     # DRR rule: empty queue resets the deficit
        asm.label("dequeue_done")
        asm.add("o1", "o0", 64)
        asm.st("l3", "g3", "o1")             # write back head
        asm.add("o1", "o0", 128)
        asm.st("l4", "g3", "o1")             # write back deficit
        asm.label("next_flow")
        asm.add("l1", "l1", 1)
        asm.cmp("l1", flows)
        asm.bl("flow_loop")
        asm.ba("round_loop")
        asm.label("service_done")
        # accumulate total served bytes across flows
        asm.set("o0", 0)                     # flow index
        asm.set("o1", 0)                     # total bytes
        asm.label("sum_loop")
        asm.cmp("o0", flows)
        asm.be("sum_done")
        asm.sll("o2", "o0", 2)
        asm.add("o2", "o2", 192)
        asm.ld("o3", "g3", "o2")
        asm.add("o1", "o1", "o3")
        asm.add("o0", "o0", 1)
        asm.ba("sum_loop")
        asm.label("sum_done")
        asm.set("o4", "results")
        asm.st("l0", "o4", 0)                # packets served
        asm.st("o1", "o4", 4)                # bytes served
        asm.st("l6", "o4", 8)                # rounds
        asm.ret()

        return asm.assemble()

    # -- reference ---------------------------------------------------------------------------------

    def reference(self) -> Mapping[str, int]:
        flows = self._classify()
        queues: List[List[int]] = [[] for _ in range(self.FLOWS)]
        for flow, length in zip(flows, self._lengths):
            queues[flow].append(length)
        heads = [0] * self.FLOWS
        deficits = [0] * self.FLOWS
        served_bytes = [0] * self.FLOWS
        packets_served = 0
        rounds = 0
        total = self.packet_count
        while packets_served < total:
            rounds += 1
            for flow in range(self.FLOWS):
                if heads[flow] == len(queues[flow]):
                    continue
                deficits[flow] += self.QUANTUM
                while heads[flow] < len(queues[flow]):
                    length = queues[flow][heads[flow]]
                    if length > deficits[flow]:
                        break
                    deficits[flow] -= length
                    served_bytes[flow] += length
                    heads[flow] += 1
                    packets_served += 1
                else:
                    deficits[flow] = 0
        return {
            "packets_served": packets_served,
            "bytes_served": sum(served_bytes) & _MASK32,
            "rounds": rounds,
        }

    def reference_per_flow_bytes(self) -> List[int]:
        """Bytes served per flow according to the Python reference (for property tests)."""
        flows = self._classify()
        served = [0] * self.FLOWS
        for flow, length in zip(flows, self._lengths):
            served[flow] += length
        return served

    def extract_results(self, result: SimulationResult) -> Dict[str, int]:
        results_addr = self.program.address_of("results")
        memory = result.memory
        return {
            "packets_served": memory.load_word(results_addr),
            "bytes_served": memory.load_word(results_addr + 4),
            "rounds": memory.load_word(results_addr + 8),
        }

    def served_bytes_per_flow(self, result: SimulationResult) -> List[int]:
        """Per-flow served byte counters read back from the simulated memory."""
        state = self.program.address_of("flow_state")
        return [result.memory.load_word(state + 192 + 4 * f) for f in range(self.FLOWS)]
