"""Simulation and analysis toolkit for an evanescent-field nanofiber atom trap.

Subpackages:

* ``numerics``     -- special functions, root finding, damped Gauss-Newton fits
* ``fiber_mode``   -- exact HE11 eigenmode and vector field evaluation
* ``atom_cs``      -- cesium hyperfine/Zeeman structure and polarizabilities
* ``light_matter`` -- light shifts, fictitious fields, assembled trap
* ``dynamics``     -- rate-equation optical pumping and MW lineshapes
* ``spectra``      -- transmission/MW spectrum models, generators, fitters
* ``cli``          -- the ``nanotrap`` command-line entry point
"""

from .atom_cs import AtomicData, HyperfineState, default_atomic_data
from .fiber_mode import FiberSpec, GuidedMode, LightField, solve_he11
from .numerics import FitResult

__version__ = "0.1.0"

__all__ = [
    "AtomicData",
    "HyperfineState",
    "default_atomic_data",
    "FiberSpec",
    "GuidedMode",
    "LightField",
    "solve_he11",
    "FitResult",
    "__version__",
]
