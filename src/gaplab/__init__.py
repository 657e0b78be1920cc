"""gaplab: modality-gap decomposition, alignment losses with hand-written
gradients, a loss-adaptive three-phase curriculum, a toy dual-encoder trainer,
and the evaluation suite and CLI that tie them together."""

from . import curriculum, embfile, evalkit, geometry, losses, numerics, sweep, trainkit
from .curriculum import *  # noqa: F403
from .embfile import *  # noqa: F403
from .evalkit import *  # noqa: F403
from .geometry import *  # noqa: F403
from .losses import *  # noqa: F403
from .numerics import *  # noqa: F403
from .sweep import *  # noqa: F403
from .trainkit import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (curriculum, embfile, evalkit, geometry, losses, numerics, sweep, trainkit)
    for name in module.__all__
]
