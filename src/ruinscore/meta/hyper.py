"""Training hyperparameters, one frozen set per meta-model kind.

Both trainers are fully deterministic and draw no random numbers, so these
values and the training data fix the model bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LogRegHyper:
    learning_rate: float = 0.1
    l2: float = 1e-3
    iterations: int = 500

    def __post_init__(self) -> None:
        # chained comparisons, so NaN and infinities fail them
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not 0 <= self.l2 < math.inf:
            raise ValueError("l2 must be finite and >= 0")
        if not 0 <= self.iterations < math.inf:
            raise ValueError("iterations must be finite and >= 0")


@dataclass(frozen=True)
class GbdtHyper:
    rounds: int = 50
    learning_rate: float = 0.1
    max_depth: int = 3
    min_leaf: int = 5
    lam: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.rounds < math.inf:
            raise ValueError("rounds must be finite and >= 0")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not 1 <= self.max_depth < math.inf:
            raise ValueError("max_depth must be finite and >= 1")
        if not 1 <= self.min_leaf < math.inf:
            raise ValueError("min_leaf must be finite and >= 1")
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be finite and > 0")

