"""Rate-independent hysteresis operators coupled to reaction-diffusion solvers.

The package is organized by subject: ``hysteresis`` (scalar stop and play
operators with exact directional derivatives), ``spatial`` (structured-grid
diffusion operators, quadrature, the semigroup diagnostic), ``evolution`` (the
coupled time integration and its Picard variant), ``sensitivity`` (the
linearized equation and finite-difference verification), ``control``
(tracking-type optimal control), and ``scenario``/``cli`` (JSON scenarios and
the command line front end).  Each module's ``__all__`` is its public surface;
the package re-exports those of all but ``cli``, and ``stopsim.__all__`` is
their concatenation.
"""

from . import control, errors, evolution, hysteresis, scenario, sensitivity, spatial
from .errors import *  # noqa: F401,F403
from .hysteresis import *  # noqa: F401,F403
from .spatial import *  # noqa: F401,F403
from .evolution import *  # noqa: F401,F403
from .sensitivity import *  # noqa: F401,F403
from .control import *  # noqa: F401,F403
from .scenario import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *(name for module in (
    errors, hysteresis, spatial, evolution, sensitivity, control, scenario)
    for name in module.__all__)]
