"""Sequential sample splitting: routing, determinism, counts."""

import pytest

from seqdr.numerics import DomainError, SeedSpec
from seqdr.splitting import EVAL, TRAIN, SplitLedger, SplitMode


class TestSplitMode:
    def test_rejects_unknown(self):
        with pytest.raises(DomainError):
            SplitMode("thirds")


class TestAlternating:
    def test_four_arrivals(self):
        ledger = SplitLedger(SeedSpec(0))
        mode = SplitMode("alternating")
        log = [ledger.assign(mode) for _ in range(4)]
        assert log == [TRAIN, EVAL, TRAIN, EVAL]
        assert ledger.t == 4
        assert ledger.t_eval == 2
        assert ledger.t_train == 2


class TestBernoulliHalf:
    def test_concentration(self):
        ledger = SplitLedger(SeedSpec(5))
        mode = SplitMode("bernoulli_half")
        for _ in range(10_000):
            ledger.assign(mode)
        assert abs(ledger.t_eval / ledger.t - 0.5) < 0.02

    def test_replay_identical(self):
        logs = []
        for _ in range(2):
            ledger = SplitLedger(SeedSpec(77, 3))
            mode = SplitMode("bernoulli_half")
            for _ in range(500):
                ledger.assign(mode)
            logs.append(list(ledger.assignment_log))
        assert logs[0] == logs[1]

    def test_counts_partition(self):
        ledger = SplitLedger(SeedSpec(1))
        mode = SplitMode("bernoulli_half")
        for _ in range(1000):
            ledger.assign(mode)
        assert ledger.t_eval + ledger.t_train == ledger.t == 1000
        assert ledger.assignment_log.count(TRAIN) == ledger.t_train
        assert ledger.assignment_log.count(EVAL) == ledger.t_eval
