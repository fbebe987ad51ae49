"""Split quasimorphisms, quasicocycles, and quasi-representations on free
products of two groups.

A split map on A * B applies one alternating factor map per normal-form
letter; everything downstream is exact rational arithmetic with certified
enumeration windows: defects and their witnesses, homogenization, counting
and block decompositions, twist fixed points, vector-valued cocycle growth,
the defect-vector space with its isometric embeddings, and metric-target
quasi-representations with nontriviality witnesses.

Each library module's ``__all__`` is its list of public names, and the
package offers all of them.
"""

from .groups import *
from .words import *
from .quasimorphisms import *
from .counting import *
from .automorphisms import *
from .quasicocycles import *
from .defect_space import *
from .qrep import *

__version__ = "0.1.0"
