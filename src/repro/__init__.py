"""Vertexica reproduction: vertex-centric graph analytics inside a
from-scratch columnar relational engine.

Reproduces *"Vertexica: Your Relational Friend for Graph Analytics!"*
(Jindal et al., PVLDB 7(13), 2014).  See README.md's "Layout" section
for the system inventory and its "Paper vs measured" section for
paper-vs-measured results.

Quickstart::

    from repro import Vertexica
    from repro.programs import PageRank

    vx = Vertexica()
    graph = vx.load_graph("g", src=[0, 1, 2], dst=[1, 2, 0])
    result = vx.run(graph, PageRank(iterations=10))
    print(result.values)
"""

from repro.core import Vertexica, VertexicaConfig, VertexicaResult, VertexProgram
from repro.engine import Database
from repro.graphview import CoEdgeSpec, EdgeSpec, GraphView, NodeSpec
from repro.serving import ServingSession, VertexicaService

__version__ = "1.2.0"

__all__ = [
    "Vertexica",
    "VertexicaConfig",
    "VertexicaResult",
    "VertexProgram",
    "Database",
    "GraphView",
    "NodeSpec",
    "EdgeSpec",
    "CoEdgeSpec",
    "VertexicaService",
    "ServingSession",
    "__version__",
]
