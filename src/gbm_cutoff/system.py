"""The (A, B, x) triple every analysis consumes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ToolkitError
from .linalg_core import DEFAULT_TOL, as_matrix, as_vector


@dataclass(frozen=True)
class GBMSystem:
    """Drift matrix A, diffusion matrix B, initial state x and a tolerance.

    The state equation is dX = A X dt + B X o dW (Stratonovich), equivalently
    dX = (A + B^2/2) X dt + B X dW in the Ito sense.
    """

    A: np.ndarray
    B: np.ndarray
    x: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        for name, read in (("A", as_matrix), ("B", as_matrix), ("x", as_vector)):
            arr = read(getattr(self, name), name).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.A.shape != self.B.shape or self.A.shape[0] != self.x.size:
            raise ToolkitError("dim_mismatch", f"A {self.A.shape}, B {self.B.shape}, x length {self.x.size}")
        if not np.any(self.x != 0.0):
            raise ToolkitError("zero_vector", "initial state x must be nonzero")
        if not (self.tol > 0):
            raise ToolkitError("bad_tolerance", "tol must be positive")

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @cached_property
    def hypotheses(self):
        """The pair's ``HypothesisReport``, every gate's input; built on first use, as a system is immutable."""
        from .hypothesis_checks import check_pair  # that module imports this one

        return check_pair(self.A, self.B, self.tol)
