"""``repro.core`` — the Vertexica layer (the paper's primary contribution).

A Pregel-compatible vertex-centric interface executed *inside* the
relational engine: the coordinator is a stored procedure, workers are
partitioned transform UDFs, and graph state lives in vertex/edge/message
tables.  See README.md ("Two data planes") and ROADMAP.md
("Architecture snapshot") for the architecture map.
"""

from repro.core import faults
from repro.core.api import OutEdge, Vertex
from repro.core.codecs import (
    FLOAT_CODEC,
    INTEGER_CODEC,
    ValueCodec,
    vector_codec,
)
from repro.core.config import VertexicaConfig
from repro.core.coordinator import Coordinator, register_coordinator
from repro.core.faults import FaultPlan, FaultSpec, InjectedFault, InjectedKill
from repro.core.metrics import RunStats, SuperstepStats
from repro.core.recovery import CheckpointPolicy, RunRecovery, program_fingerprint
from repro.core.program import (
    BatchVertexProgram,
    VertexBatch,
    VertexProgram,
    supports_batch,
)
from repro.core.runner import Vertexica, VertexicaResult
from repro.core.storage import GraphHandle, GraphStorage

__all__ = [
    "Vertex",
    "OutEdge",
    "VertexProgram",
    "BatchVertexProgram",
    "VertexBatch",
    "supports_batch",
    "ValueCodec",
    "FLOAT_CODEC",
    "INTEGER_CODEC",
    "vector_codec",
    "VertexicaConfig",
    "Coordinator",
    "register_coordinator",
    "Vertexica",
    "VertexicaResult",
    "GraphHandle",
    "GraphStorage",
    "RunStats",
    "SuperstepStats",
    "faults",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedKill",
    "CheckpointPolicy",
    "RunRecovery",
    "program_fingerprint",
]
