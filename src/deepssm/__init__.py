"""Deep linear state-space models: construction, conversion, certification.

The package revolves around one identity: a stack of diagonal linear
recurrences is, as an input-output map, a single convolution, and that
convolution can be re-realized at any admissible depth.  Moving to a
deeper stack provably shrinks the entrywise parameter norms needed to
express the same kernel; :mod:`deepssm.convert` makes the rewrite
constructive and certifies the bound, :mod:`deepssm.fit` probes it
empirically with small gradient-descent experiments.
"""

from . import convert, core, errors, fit, symfun
from .convert import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .fit import *  # noqa: F401,F403
from .symfun import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*errors.__all__, *symfun.__all__, *core.__all__, *convert.__all__, *fit.__all__]
