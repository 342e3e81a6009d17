"""Multiphoton Hong-Ou-Mandel superresolution imaging toolkit.

Simulation and estimation tools for two equally bright thermal point
sources imaged through a Gaussian point-spread function and interfered on
a balanced beam splitter with momentum-resolving cameras: exact L-photon
coincidence densities, per-order and total Fisher informations, synthetic
detection records, and maximum-likelihood separation estimation.
"""

from .optics import *
from .coincidence import *
from .fisher import *
from .estimation import *

__version__ = "0.1.0"
