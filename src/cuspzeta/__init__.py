"""Exact zeta functions of weighted and cuspidal graphs, with oracles and pole analysis.

Each public name is declared once, in its module's ``__all__``, and the
package exports all of them.
"""

from cuspzeta.exact import *  # noqa: F401,F403
from cuspzeta.graphs import *  # noqa: F401,F403
from cuspzeta.families import *  # noqa: F401,F403
from cuspzeta.zeta import *  # noqa: F401,F403
from cuspzeta.oracle import *  # noqa: F401,F403
from cuspzeta.spectra import *  # noqa: F401,F403

__version__ = "0.1.0"
