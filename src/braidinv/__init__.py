"""Exact graded dimensions of invariant braid cohomology.

Three routes to each table: a closed-form count (the formula), an explicit
listing of generator labels (the catalog), and a brute-force character
oracle that shares no rule with either.  They must agree; the test suite
and the `braidinv verify` command enforce it.
"""

from .character_oracle import GroupSpec, oracle_dimension
from .core_combinatorics import PoincareTable
from .cycle_invariants import enumerate_selfdual, selfdual_count_closed_form
from .errors import CapabilityError, InternalConsistencyError
from .extension_catalog import enumerate_EP, enumerate_KP, ext_dimension
from .product_catalog import enumerate_generators, product_dimension

__version__ = "0.1.0"

__all__ = [
    "product_dimension",
    "ext_dimension",
    "oracle_dimension",
    "GroupSpec",
    "enumerate_generators",
    "enumerate_EP",
    "enumerate_KP",
    "enumerate_selfdual",
    "selfdual_count_closed_form",
    "PoincareTable",
    "CapabilityError",
    "InternalConsistencyError",
]
