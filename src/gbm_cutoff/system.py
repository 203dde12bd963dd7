"""The (A, B, x) triple every analysis consumes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ToolkitError
from .linalg_core import DEFAULT_TOL, as_matrix, as_vector


@dataclass
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
        self.A = as_matrix(self.A, "A").copy()
        self.B = as_matrix(self.B, "B").copy()
        self.x = as_vector(self.x, "x").copy()
        for arr in (self.A, self.B, self.x):
            arr.setflags(write=False)
        if self.A.shape != self.B.shape or self.A.shape[0] != self.x.size:
            raise ToolkitError(
                "dim_mismatch",
                f"A {self.A.shape}, B {self.B.shape}, x length {self.x.size}",
            )
        if not np.any(self.x != 0.0):
            raise ToolkitError("zero_vector", "initial state x must be nonzero")
        if not (self.tol > 0):
            raise ToolkitError("bad_tolerance", "tol must be positive")

    @property
    def dim(self) -> int:
        return self.A.shape[0]
