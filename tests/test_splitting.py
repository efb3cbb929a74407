"""Sequential sample splitting: routing, determinism, counts."""

from seqdr.numerics import SeedSpec
from seqdr.splitting import EVAL, TRAIN, SplitLedger


class TestBernoulliHalf:
    def test_concentration(self):
        ledger = SplitLedger(SeedSpec(5))
        for _ in range(10_000):
            ledger.assign()
        assert abs(ledger.t_eval / ledger.t - 0.5) < 0.02

    def test_replay_identical(self):
        logs = []
        for _ in range(2):
            ledger = SplitLedger(SeedSpec(77, 3))
            for _ in range(500):
                ledger.assign()
            logs.append(list(ledger.assignment_log))
        assert logs[0] == logs[1]

    def test_counts_partition(self):
        ledger = SplitLedger(SeedSpec(1))
        for _ in range(1000):
            ledger.assign()
        assert ledger.t_eval + ledger.t_train == ledger.t == 1000
        assert ledger.assignment_log.count(TRAIN) == ledger.t_train
        assert ledger.assignment_log.count(EVAL) == ledger.t_eval
