"""Exact-arithmetic Weyl alternation sets and Kostant weight multiplicities.

Root systems are realized in an ambient rational space. Weyl group elements
are lex-least reduced words that act by simple reflections. The Kostant
partition function and its q-analog come from one table per RootSystem
object, each row of cells over a few non-adjacent axes packed into one int
by excess (height minus parts), so a row is only as long as its deepest
cell. It starts from q^ht(x), the simple roots' share, and adds a knapsack
pass per other positive root, one big-int update per row that a query's
cells depend on; a table whose estimated size passes the budget raises
TableTooLarge before it is built.
Multiplicities come from the alternating sum over the Weyl alternation set,
which one integer walk of the weak order finds for every type.
"""

from .errors import (CapExceeded, HeightExceeded, NotInRootSpan,
                     TableTooLarge, UnsupportedRank, WeylaltError)
from .kostant import QPolynomial, partition, partition_q, partition_q_bruteforce
from .multiplicity import (DEFAULT_CAP, AlternationSet, WeightDiagramEntry,
                           alternation_set, multiplicity, q_multiplicity,
                           q_multiplicity_terms, weight_diagram)
from .rootsystem import (RootSystem, build, fundamental_weight, highest_root,
                         is_dominant, is_dominant_integral, sum_of_simple_roots,
                         sum_of_simple_roots_in_fundamental_basis,
                         to_fundamental_coords, to_simple_root_coords)
from .weyl import WeylElement, group_order

__version__ = "0.1.0"

__all__ = [
    "AlternationSet",
    "CapExceeded",
    "DEFAULT_CAP",
    "HeightExceeded",
    "NotInRootSpan",
    "QPolynomial",
    "RootSystem",
    "TableTooLarge",
    "UnsupportedRank",
    "WeightDiagramEntry",
    "WeylElement",
    "WeylaltError",
    "alternation_set",
    "build",
    "fundamental_weight",
    "group_order",
    "highest_root",
    "is_dominant",
    "is_dominant_integral",
    "multiplicity",
    "partition",
    "partition_q",
    "partition_q_bruteforce",
    "q_multiplicity",
    "q_multiplicity_terms",
    "sum_of_simple_roots",
    "sum_of_simple_roots_in_fundamental_basis",
    "to_fundamental_coords",
    "to_simple_root_coords",
    "weight_diagram",
    "__version__",
]
