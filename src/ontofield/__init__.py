"""Tools for the deterministic (all-commuting) formulation of a free scalar boson.

The package builds the finite periodic automaton whose evolution operator is a
cyclic permutation, the truncated ladder algebra that connects it to a
harmonic oscillator mode, momentum-lattice fields evolved by exact spectral
phase rotation, the real-space propagation kernels evaluated by two
independent quadrature routes, finite-difference interacting dynamics, and a
random-phase vacuum ensemble with its correlator statistics.
"""

from ontofield import cyclic, dynamics, kernels, ladder, lattice, vacuum
from ontofield.cyclic import *  # noqa: F403
from ontofield.ladder import *  # noqa: F403
from ontofield.lattice import *  # noqa: F403
from ontofield.kernels import *  # noqa: F403
from ontofield.dynamics import *  # noqa: F403
from ontofield.vacuum import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *(name for module in (cyclic, ladder, lattice, kernels, dynamics, vacuum) for name in module.__all__),
    "__version__",
]
