"""Exact symbolic verification of Hom-algebra axioms.

Builds Hom-associative algebras, Hom-bialgebras, and module Hom-algebras by
twisting classical structures with endomorphisms, and checks every axiom by
exhaustive sweeps over degree-bounded bases with exact arithmetic in a formal
parameter q.
"""

from .scalars import QLaurent
from .polyalg import Poly
from .uea import UElem
from .report import CheckReport

__all__ = [
    "QLaurent",
    "Poly",
    "UElem",
    "CheckReport",
]
