"""A Giraph-like in-memory BSP engine (the paper's main comparison system).

Runs the *same* :class:`~repro.core.program.VertexProgram` objects as
Vertexica, but on a dedicated vertex-centric runtime instead of a
relational engine: vertices are hash partitioned across workers, messages
are combined at the sender, serialized (pickled) per worker pair to model
the network shuffle, and every superstep ends at a synchronization
barrier charged a fixed coordination latency (``BARRIER_LATENCY_S``,
counted per superstep, never slept).
"""

from repro.baselines.giraph.engine import BARRIER_LATENCY_S, GiraphConfig, GiraphEngine, GiraphResult

__all__ = ["BARRIER_LATENCY_S", "GiraphEngine", "GiraphConfig", "GiraphResult"]
