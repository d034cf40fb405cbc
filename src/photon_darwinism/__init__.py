"""Decoherence and information redundancy from blackbody illumination.

A dielectric sphere held in a spatial superposition scatters thermal
photons arriving from a patch of sky. This package computes how fast the
superposition decoheres, how receptive the photon environment is to
recording which branch occurred, and how redundantly that record spreads
over photon fragments: the mutual information curves, redundancy growth
laws, and their generalizations to unbalanced and many-branch
superpositions, all cross-checked against a brute-force finite model.
"""

from . import (discrete_oracle, entropy_kernels, information, radiometry,
               receptivity, sky, superpositions)
from .entropy_kernels import *  # noqa: F403
from .sky import *  # noqa: F403
from .radiometry import *  # noqa: F403
from .receptivity import *  # noqa: F403
from .information import *  # noqa: F403
from .superpositions import *  # noqa: F403
from .discrete_oracle import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [*entropy_kernels.__all__, *sky.__all__, *radiometry.__all__,
           *receptivity.__all__, *information.__all__,
           *superpositions.__all__, *discrete_oracle.__all__, "__version__"]
