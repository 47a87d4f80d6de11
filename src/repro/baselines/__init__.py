"""``repro.baselines`` — the comparison systems from Figure 2.

* :mod:`repro.baselines.giraph` — a Giraph-like BSP engine: hash-partitioned
  workers, sender-side combiners, serialized message shuffles, and a
  synchronization barrier per superstep.
* :mod:`repro.baselines.graphdb` — a Neo4j-like transactional property-graph
  store with a write-ahead log and traversal-based algorithms.

Both charge their simulated latencies to exact counters (supersteps,
store accesses) instead of sleeping them; see README.md, "Paper vs
measured", for what each simulation charges and where the constants
come from.
"""

from repro.baselines.giraph import GiraphConfig, GiraphEngine, GiraphResult
from repro.baselines.graphdb import PropertyGraphStore

__all__ = ["GiraphEngine", "GiraphConfig", "GiraphResult", "PropertyGraphStore"]
