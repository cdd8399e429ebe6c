"""Training hyperparameters, one frozen set per meta-model kind.

Both trainers are fully deterministic and draw no random numbers, so these
values and the training data fix the model bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dataset_io import check_count, check_real


@dataclass(frozen=True)
class LogRegHyper:
    learning_rate: float = 0.1
    l2: float = 1e-3
    iterations: int = 500

    def __post_init__(self) -> None:
        check_real(self.learning_rate, "learning_rate", 0, above=True)
        check_real(self.l2, "l2", 0)
        check_count(self.iterations, "iterations", 0)


@dataclass(frozen=True)
class GbdtHyper:
    rounds: int = 50
    learning_rate: float = 0.1
    max_depth: int = 3
    min_leaf: int = 5
    lam: float = 1.0

    def __post_init__(self) -> None:
        check_count(self.rounds, "rounds", 0)
        check_real(self.learning_rate, "learning_rate", 0, above=True)
        check_count(self.max_depth, "max_depth", 1)
        check_count(self.min_leaf, "min_leaf", 1)
        check_real(self.lam, "lam", 0, above=True)

