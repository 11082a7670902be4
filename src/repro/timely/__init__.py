"""Timely-dataflow substrate: worker sharding, work metering, processes.

The original Graphsurge runs on Timely Dataflow, which scales operators
across workers by partitioning records on a key. This package provides the
execution-model pieces the differential engine builds on:

* :func:`repro.timely.worker.shard_for` — deterministic record→worker
  assignment (hash partitioning, as TD's ``exchange`` does).
* :class:`repro.timely.meter.WorkMeter` — per-worker, per-superstep work
  accounting used to compute *simulated parallel time*, the deterministic
  cost metric reported by the benchmark harness (see DESIGN.md §2.3/§2.4).
* :mod:`repro.timely.cluster` — the ``process`` backend's forked workers
  and exchange channels.

There is no separate timely dataflow graph: every dataflow is a
:mod:`repro.differential` dataflow, and the acyclic view-collection steps
(EBM, ordering, difference stream) are direct code.
"""

from repro.timely.meter import WorkMeter
from repro.timely.worker import shard_for, stable_hash

__all__ = ["WorkMeter", "shard_for", "stable_hash"]
