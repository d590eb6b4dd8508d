"""Fluid reflecting-surface link simulator and closed-form analysis.

Each module's `__all__` is the one list of its public names, and the
package re-exports them in module order.
"""

__version__ = "0.1.0"  # set before the imports: experiments reads it from here

from .special import *  # noqa: E402,F403
from .correlation import *  # noqa: E402,F403
from .channel import *  # noqa: E402,F403
from .analysis import *  # noqa: E402,F403
from .montecarlo import *  # noqa: E402,F403
from .config import *  # noqa: E402,F403
from .experiments import *  # noqa: E402,F403

__all__ = (
    special.__all__
    + correlation.__all__
    + channel.__all__
    + analysis.__all__
    + montecarlo.__all__
    + config.__all__
    + experiments.__all__
)
