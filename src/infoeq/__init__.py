"""Information-equilibrium toolkit.

Markets are modelled as information transfer between a source quantity
(demand) and a destination quantity (supply) with a power-law index k.
The same three-number relation generates supply and demand curves, a
macro price level with a slowly varying index, interest rate and hours
identities, production functions, AD-AS and IS-LM diagrams, and a
statistical ensemble of many small markets.
"""

from . import data, ensemble, errors, fitting, macro, paramfile, relations, timeseries
from .data import *  # noqa: F403
from .ensemble import *  # noqa: F403
from .errors import *  # noqa: F403
from .fitting import *  # noqa: F403
from .macro import *  # noqa: F403
from .paramfile import *  # noqa: F403
from .relations import *  # noqa: F403
from .timeseries import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *relations.__all__,
    *timeseries.__all__,
    *macro.__all__,
    *ensemble.__all__,
    *fitting.__all__,
    *paramfile.__all__,
    *data.__all__,
    *errors.__all__,
]
