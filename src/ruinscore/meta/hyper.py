"""Training hyperparameters for both meta-models."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LogRegHyper:
    learning_rate: float = 0.1
    l2: float = 1e-3
    iterations: int = 500

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")


@dataclass(frozen=True)
class GbdtHyper:
    rounds: int = 50
    learning_rate: float = 0.1
    max_depth: int = 3
    min_leaf: int = 5
    lam: float = 1.0

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if self.lam <= 0:
            raise ValueError("lam must be > 0")


@dataclass(frozen=True)
class TrainHyper:
    """Hyperparameters plus the optional class-imbalance knob.

    class_weights, when set, scales each sample's loss contribution by the
    weight of its class (default uniform). Both trainers are fully
    deterministic and draw no random numbers.
    """

    logreg: LogRegHyper = LogRegHyper()
    gbdt: GbdtHyper = GbdtHyper()
    class_weights: tuple[float, float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.class_weights is not None:
            if len(self.class_weights) != 4 or any(w <= 0 for w in self.class_weights):
                raise ValueError("class_weights must be 4 positive numbers")
