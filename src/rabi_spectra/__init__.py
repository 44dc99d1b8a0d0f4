"""Spectral analysis of the two-photon quantum Rabi model.

The library computes eigenvalues of the two-photon Rabi Hamiltonian by
truncated-matrix diagonalization and independently reconstructs them from
closed-form squeeze-operator matrix elements, polynomial asymptotics, and
the three-term large-n eigenvalue formula, quantifying the proven O(ln n/n)
residual decay and emitting (without asserting) the conjectured O(1/n) one.

Each module's ``__all__`` declares its public names once; the package
re-exports all of them.
"""

from . import eigensolve, model, perturb, polys, squeeze
from .eigensolve import *  # noqa: F403
from .model import *  # noqa: F403
from .perturb import *  # noqa: F403
from .polys import *  # noqa: F403
from .squeeze import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*model.__all__, *eigensolve.__all__, *squeeze.__all__, *polys.__all__, *perturb.__all__]
