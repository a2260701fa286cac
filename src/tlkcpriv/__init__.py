"""Privacy-preserving publishing of process-mining event logs.

The package models event logs, simulates linkage attacks from bounded
background knowledge, audits (T,L,K,C) privacy guarantees, anonymizes logs
by greedy global suppression, and quantifies the damage with data-utility
and result-utility metrics.

The public names are those of each module's ``__all__``.
"""

from . import analysis, anonymize, background, io, log, metrics
from .analysis import *  # noqa: F401,F403
from .anonymize import *  # noqa: F401,F403
from .background import *  # noqa: F401,F403
from .io import *  # noqa: F401,F403
from .log import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (analysis, anonymize, background, io, log, metrics)
    for name in module.__all__
]
