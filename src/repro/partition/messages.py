"""Batched cross-shard messaging with an explicit charged cost model.

Distributed traversal crosses shards by exchanging *frontier messages*:
"visit these vertices of yours at distance d".  Real systems batch them per
destination and pay a fixed per-message latency plus a marginal per-item
cost; the model here charges exactly that, in the same logical charge units
the engines use for simulated I/O, so network time and storage time land on
one clock and scale-out numbers stay deterministic.

The defaults make one message round roughly as expensive as a handful of
page reads — network hops dominate tiny frontiers (why K=8 on a small graph
can *lose* to K=1) while amortising away on bulk frontiers, which is the
trade-off the scale-out figure exists to show.

Fault plane
-----------

The fault plane (:mod:`repro.faults.chaos`) can lose, duplicate, or reorder
batches, and books what that costs in its own overhead ledger.  The cost
model therefore also prices the *recovery* of a lost batch: a
retransmission pays the batch cost again plus a fixed
:attr:`~NetworkCostModel.retransmit_penalty` (the NACK/timeout detection
round).  Each batch carries a per-query
``sequence`` number — the receiver's reorder buffer restores canonical
delivery order from it and drops duplicate deliveries idempotently, which
is what keeps faulted runs byte-identical to fault-free ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Fixed charge per message batch (the "RPC" envelope: syscall + wire RTT).
DEFAULT_LATENCY_PER_MESSAGE = 32

#: Marginal charge per frontier item carried in a batch (serialisation).
DEFAULT_COST_PER_ITEM = 2

#: Extra charge a retransmission pays on top of the repeated batch cost
#: (loss detection: the NACK/timeout round that triggered the resend).
DEFAULT_RETRANSMIT_PENALTY = 16


@dataclass(frozen=True)
class NetworkCostModel:
    """Charged cost of cross-shard communication, in engine charge units."""

    latency_per_message: int = DEFAULT_LATENCY_PER_MESSAGE
    cost_per_item: int = DEFAULT_COST_PER_ITEM
    retransmit_penalty: int = DEFAULT_RETRANSMIT_PENALTY

    def __post_init__(self) -> None:
        # Guarded here so every entry point (CLI, gate, library) rejects
        # negative charges before they can poison a benchmark payload.
        if (
            self.latency_per_message < 0
            or self.cost_per_item < 0
            or self.retransmit_penalty < 0
        ):
            from repro.exceptions import BenchmarkError

            raise BenchmarkError(
                "network cost parameters must be >= 0, got "
                f"latency_per_message={self.latency_per_message}, "
                f"cost_per_item={self.cost_per_item}, "
                f"retransmit_penalty={self.retransmit_penalty}"
            )

    def batch_cost(self, items: int) -> int:
        """Charge for one batched message carrying ``items`` frontier entries."""
        return self.latency_per_message + self.cost_per_item * items

    def retransmit_cost(self, items: int) -> int:
        """Charge for re-sending a lost batch: detection round + resend.

        The *original* (lost) transmission was already charged when it was
        attempted; this prices only the recovery — so one loss costs
        ``batch_cost + retransmit_cost`` in total, against ``batch_cost``
        fault-free, and the difference is the chaos figure's overhead.
        """
        return self.retransmit_penalty + self.batch_cost(items)

    def params(self) -> dict[str, int]:
        """JSON-stable parameters for benchmark payloads."""
        return {
            "latency_per_message": self.latency_per_message,
            "cost_per_item": self.cost_per_item,
            "retransmit_penalty": self.retransmit_penalty,
        }


@dataclass
class MessageBatch:
    """One batched frontier message between two shards in one superstep."""

    superstep: int
    source_shard: int
    target_shard: int
    #: ``(external vertex id, distance)`` pairs, in discovery order.
    items: list[tuple[Any, int]]
    #: Per-query emission sequence number.  Receivers deliver in sequence
    #: order (the reorder buffer) and drop re-deliveries of a sequence they
    #: have already applied (duplicate idempotency).  0 outside chaos runs.
    sequence: int = field(default=0, init=False)

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class NetworkStats:
    """Cumulative message accounting for one distributed execution."""

    messages: int = 0
    items: int = 0
    charge: int = 0
    #: Charge per superstep (stragglers and bursts show up here).
    per_step_charge: list[int] = field(default_factory=list)

    def record_step(self, batches: list[MessageBatch], model: NetworkCostModel) -> int:
        """Account one superstep's batches; return the step's network charge."""
        step_charge = 0
        for batch in batches:
            self.messages += 1
            self.items += len(batch)
            step_charge += model.batch_cost(len(batch))
        self.charge += step_charge
        self.per_step_charge.append(step_charge)
        return step_charge
