"""Discrete-event simulation of a cache-aside deployment.

The simulator replays a time-ordered request stream against the cache and the
backend data store under a chosen freshness policy, and accounts for the
freshness cost :math:`C_F` and staleness cost :math:`C_S` exactly as the paper
defines them in §2.1.  It is the substrate on which Figures 2, 3, and 5 are
regenerated.
"""

from repro import _facade

__all__, __getattr__, __dir__ = _facade(globals(), {
    "repro.sim.clock": ("SimulationClock",),
    "repro.sim.events": ("PendingDelivery",),
    "repro.sim.results": ("SimulationResult",),
    "repro.sim.simulation": ("Simulation",),
    "repro.sim.vector": ("VectorSimulation",),
})
