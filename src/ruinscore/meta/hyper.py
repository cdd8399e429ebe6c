"""Training hyperparameters, one frozen set per meta-model kind.

Both trainers are fully deterministic and draw no random numbers, so these
values and the training data fix the model bytes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


def _check_count(value: object, name: str, low: int) -> None:
    # a bool would train as 0 or 1, a float fail deep inside the fit
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not value >= low:
        raise ValueError(f"{name} must be an integer >= {low}")


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
        _check_count(self.iterations, "iterations", 0)


@dataclass(frozen=True)
class GbdtHyper:
    rounds: int = 50
    learning_rate: float = 0.1
    max_depth: int = 3
    min_leaf: int = 5
    lam: float = 1.0

    def __post_init__(self) -> None:
        _check_count(self.rounds, "rounds", 0)
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        _check_count(self.max_depth, "max_depth", 1)
        _check_count(self.min_leaf, "min_leaf", 1)
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be finite and > 0")

