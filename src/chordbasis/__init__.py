"""Chord diagrams on labelled circles modulo the four-term relation.

Core entry points:

* :func:`chordbasis.diagrams.diagram` - parse + canonicalize a diagram string
* :func:`chordbasis.enumeration.enumerate_connected` - all connected diagrams
* :func:`chordbasis.basis.connected_basis` / :func:`chordbasis.basis.dim_A`
* :func:`chordbasis.symmetry.tree_basis` / :func:`chordbasis.symmetry.equivariantize_m2`
* ``python -m chordbasis`` or the ``chordbasis`` script for the CLI
"""

from .basis import BasisResult, connected_basis, dim_A, dim_C, eval_A_polynomial
from .diagrams import ChordDiagram, StringRep, canonicalize, diagram, parse
from .enumeration import DiagramSet, enumerate_all, enumerate_connected
from .errors import BudgetExceededError, ChordBasisError, DiagramError
from .exactla import Relation
from .relations import generate_relations

__version__ = "0.1.0"

__all__ = [
    "BasisResult",
    "BudgetExceededError",
    "ChordBasisError",
    "ChordDiagram",
    "DiagramError",
    "DiagramSet",
    "Relation",
    "StringRep",
    "__version__",
    "canonicalize",
    "connected_basis",
    "diagram",
    "dim_A",
    "dim_C",
    "enumerate_all",
    "enumerate_connected",
    "eval_A_polynomial",
    "generate_relations",
    "parse",
]
