"""Sequential sample splitting: route each arrival to training or evaluation.

Each observation is assigned by a fair seeded coin before its fields are
read. The ledger records every assignment so a run can be replayed and
audited.
"""

from __future__ import annotations

from .numerics import SeedSpec

__all__ = ["SplitLedger", "NotReady", "TRAIN", "EVAL"]

TRAIN = "train"
EVAL = "eval"


class NotReady(Exception):
    """Raised when an operation needs data that has not arrived yet;
    the caller is expected to defer rather than treat this as failure."""


class SplitLedger:
    """Training/evaluation bookkeeping for one experiment stream.

    Maintains the total count t, the evaluation count T, the training
    count T' = t - T, and the full assignment log. The coin is drawn from
    a dedicated stream of ``seed`` so that split decisions are independent
    of any data-generating noise.
    """

    def __init__(self, seed: SeedSpec):
        self._rng = seed.rng()
        self.assignment_log: list[str] = []
        self.t = 0
        self.t_eval = 0
        self.t_train = 0

    def assign(self) -> str:
        """Route the next arrival; returns 'train' or 'eval'."""
        group = TRAIN if self._rng.random() < 0.5 else EVAL
        self.t += 1
        if group == TRAIN:
            self.t_train += 1
        else:
            self.t_eval += 1
        self.assignment_log.append(group)
        assert self.t_eval + self.t_train == self.t
        return group
