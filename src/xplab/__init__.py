"""Desk-scale laboratory for weighted max(l_p, weighted-l2) sequence spaces.

Finite truncations only: vectors are sparse maps on 1-based indices, every
norm and bound is a finite computation, and every checker reports both sides
of its inequality.
"""

from . import blocks, criteria, operators, report, serialize, space, splitter, weights
from .blocks import *  # noqa: F401,F403
from .criteria import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .report import *  # noqa: F401,F403
from .serialize import *  # noqa: F401,F403
from .space import *  # noqa: F401,F403
from .splitter import *  # noqa: F401,F403
from .weights import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *space.__all__,
    *blocks.__all__,
    *operators.__all__,
    *criteria.__all__,
    *splitter.__all__,
    *serialize.__all__,
    *report.__all__,
    *weights.__all__,
    "__version__",
]
