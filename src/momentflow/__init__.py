"""Semiclassical moment dynamics: Weyl-ordered moment algebra, truncated
equation-of-motion hierarchies, adiabatic effective equations, squeezed
state formulas, and a truncated-basis quantum oracle for validation.

The package exports each module's ``__all__`` (every class of ``errors``),
except the oracle's and the CLI's, which load only when imported.
"""

from .errors import *
from .moment_algebra import *
from .hamiltonian import *
from .dynamics import *
from .adiabatic import *
from .states import *

__version__ = "0.1.0"
