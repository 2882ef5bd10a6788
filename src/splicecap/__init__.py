"""Splice unknotting counts and crosscap numbers of knot projections.

The package computes, for knot projections given as signed Gauss codes:

* the splice unknotting count ``u_minus`` (minimum number of non-kink
  splices over all descents to the simple closed curve) with replayable
  witnesses,
* upper bounds for the two-way count ``u_upper``, which also allows
  inserting kinks and half-twist bands, from band insertions followed by
  an exact descent,
* state-surface Euler characteristics and crosscap numbers of the
  alternating knots the projections carry (minimal-genus branching),
* twist-region family generators and the classifier of projections with
  small splice counts, and
* a verification harness over the bundled table of prime projections with
  up to eight double points.
"""

from .curvemap import *
from .errors import *
from .families import *
from .pipeline import *
from .search import *
from .splices import *
from .surfaces import *

__version__ = "0.1.0"
