"""Sequential sample splitting: route each arrival to training or evaluation.

Each observation is assigned before its fields are read, either by a fair
seeded coin or by deterministic alternation (even indices train, odd
eval). The ledger records every assignment so a run can be replayed and
audited.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import DomainError, SeedSpec

__all__ = ["SplitMode", "SplitLedger", "NotReady", "TRAIN", "EVAL"]

TRAIN = "train"
EVAL = "eval"


class NotReady(Exception):
    """Raised when an operation needs data that has not arrived yet;
    the caller is expected to defer rather than treat this as failure."""


@dataclass(frozen=True)
class SplitMode:
    """How arrivals are routed: a fair coin or strict alternation."""

    mode: str = "bernoulli_half"

    def __post_init__(self):
        if self.mode not in ("bernoulli_half", "alternating"):
            raise DomainError(f"unknown split mode: {self.mode!r}")


class SplitLedger:
    """Training/evaluation bookkeeping for one experiment stream.

    Maintains the total count t, the evaluation count T, the training
    count T' = t - T, and the full assignment log. The coin for the
    bernoulli mode is drawn from a dedicated stream of ``seed`` so that
    split decisions are independent of any data-generating noise.
    """

    def __init__(self, seed: SeedSpec | None = None):
        self.seed = seed if seed is not None else SeedSpec(0)
        self._rng = self.seed.rng()
        self.assignment_log: list[str] = []
        self.t = 0
        self.t_eval = 0
        self.t_train = 0

    def assign(self, mode: SplitMode) -> str:
        """Route the next arrival; returns 'train' or 'eval'."""
        if mode.mode == "alternating":
            # even-numbered arrivals (0-based index even) go to training
            group = TRAIN if self.t % 2 == 0 else EVAL
        else:
            group = TRAIN if self._rng.random() < 0.5 else EVAL
        self.t += 1
        if group == TRAIN:
            self.t_train += 1
        else:
            self.t_eval += 1
        self.assignment_log.append(group)
        assert self.t_eval + self.t_train == self.t
        return group
