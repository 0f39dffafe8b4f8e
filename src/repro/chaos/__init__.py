"""Chaos harness: apply fault plans to a running cluster and recover.

- :mod:`repro.chaos.engine` — the :class:`ChaosEngine` kernel process
  that fires a :class:`repro.sim.faults.FaultPlan` against a
  :class:`repro.system.cluster.TaxCluster`;
- :mod:`repro.chaos.rearguard` — the :class:`RearGuard` coordinator that
  watches a monitored agent's heartbeats and relaunches its last
  checkpoint when the agent goes silent;
- :mod:`repro.chaos.scenario` — the named end-to-end chaos scenarios the
  ``chaos`` suite plugin runs.
"""

from repro.chaos.engine import ChaosEngine
from repro.chaos.rearguard import RearGuard

__all__ = ["ChaosEngine", "RearGuard"]
