"""The retry ledger: one retry → bisect → quarantine ladder, checked as a
state machine.

:class:`~repro.experiments.RetryLedger` is the bookkeeping behind both
the CLI pool's :class:`~repro.experiments.WorkerSupervisor` and the
service's lease board, so its invariants are the supervision contract:

* every seed ends exactly once, as done or quarantined — until then it
  sits in exactly one queued or leased shard;
* no shard is ever attempted more than ``max_attempts`` times;
* bisection splits only the failed shard's still-missing seeds;
* a revoked lease's late upload never double-counts, and a stale
  failure report never charges a second time.
"""

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.experiments import RetryLedger, RetryPolicy, seed_chunks
from repro.telemetry import MetricsRegistry, use_registry

KINDS = ("error", "crash", "timeout", "submit")


class LedgerMachine(RuleBasedStateMachine):
    """A caller that claims, uploads, fails, revokes and releases shards
    in any order, with a clock it advances itself."""

    @initialize(
        seeds=st.integers(min_value=1, max_value=12),
        shards=st.integers(min_value=1, max_value=4),
        max_attempts=st.integers(min_value=1, max_value=3),
        durable=st.sets(st.integers(min_value=0, max_value=11), max_size=4),
    )
    def open(self, seeds, shards, max_attempts, durable):
        self.retry = RetryPolicy(
            max_attempts=max_attempts, base_delay=0.1, max_delay=0.4
        )
        self.seeds = set(range(seeds))
        self.ledger = RetryLedger(
            seed_chunks(sorted(self.seeds), shards), self.retry, "ledger",
            done=durable & self.seeds,
        )
        self.now = 0.0
        self.held = []  # leases this caller holds
        self.revoked = []  # leases taken away, whose holder may upload late
        self.landed = Counter()

    # ------------------------------------------------------------------
    @rule()
    def claim(self):
        shard = self.ledger.claim(self.now)
        if shard is None:
            return
        assert shard.seeds, "an empty shard was leased"
        assert shard.ready_at <= self.now, "a shard was leased during backoff"
        assert not any(self.ledger.settled(s) for s in shard.seeds)
        self.held.append(shard)

    @precondition(lambda self: self.held or self.revoked)
    @rule(data=st.data())
    def land(self, data):
        shard = data.draw(st.sampled_from(self.held + self.revoked))
        seed = data.draw(st.sampled_from(shard.seeds))
        if self.ledger.land(seed):
            self.landed[seed] += 1

    @precondition(lambda self: self.held)
    @rule(data=st.data(), kind=st.sampled_from(KINDS))
    def fail(self, data, kind):
        shard = self.held.pop(data.draw(st.integers(0, len(self.held) - 1)))
        missing = self.ledger.missing(shard.seeds)
        queued = list(self.ledger._pending)
        failures = len(self.ledger.failures)
        self.ledger.fail(shard, kind, "boom", self.now)
        added = [s for s in self.ledger._pending if s not in queued]
        if not missing:
            assert added == [] and len(self.ledger.failures) == failures
        elif shard.attempt < self.retry.max_attempts:
            (retried,) = added
            assert retried.seeds == missing
            assert retried.attempt == shard.attempt + 1
            assert retried.ready_at >= self.now
        elif len(missing) > 1:
            # Bisection splits exactly the still-missing seeds.
            assert len(added) == 2
            assert added[0].seeds + added[1].seeds == missing
            assert all(half.seeds and half.attempt == 1 for half in added)
        else:
            assert added == []
            record = self.ledger.failures[-1]
            assert (record.seed, record.kind) == (missing[0], kind)
            assert record.attempts == shard.attempt
            assert missing[0] in self.ledger.quarantined

    @precondition(lambda self: self.held)
    @rule(data=st.data(), late=st.booleans())
    def revoke_or_release(self, data, late):
        """Blame-free hand-back: a revoked holder (``late``) may still
        upload; a releasing one has gone."""
        shard = self.held.pop(data.draw(st.integers(0, len(self.held) - 1)))
        failures = len(self.ledger.failures)
        self.ledger.release(shard, self.now)
        assert len(self.ledger.failures) == failures
        if late:
            self.revoked.append(shard)

    @precondition(lambda self: self.revoked)
    @rule(data=st.data(), kind=st.sampled_from(KINDS))
    def stale_report(self, data, kind):
        """A failure or release for a lease already taken away is a
        no-op: the shard is never charged twice."""
        shard = data.draw(st.sampled_from(self.revoked))
        queued = len(self.ledger._pending)
        failures = len(self.ledger.failures)
        self.ledger.fail(shard, kind, "late", self.now)
        self.ledger.release(shard, self.now)
        assert len(self.ledger._pending) == queued
        assert len(self.ledger.failures) == failures

    @rule(seconds=st.floats(min_value=0.0, max_value=0.5))
    def advance_clock(self, seconds):
        self.now += seconds

    # ------------------------------------------------------------------
    @invariant()
    def every_seed_is_in_exactly_one_place(self):
        ledger = self.ledger
        assert not ledger.done & ledger.quarantined
        assert all(count == 1 for count in self.landed.values())
        places = Counter(
            seed
            for shard in list(ledger._pending) + list(ledger._leased)
            for seed in shard.seeds
            if not ledger.settled(seed)
        )
        unsettled = {s for s in self.seeds if not ledger.settled(s)}
        assert set(places) == unsettled
        assert all(count == 1 for count in places.values())

    @invariant()
    def attempts_never_exceed_the_budget(self):
        limit = self.retry.max_attempts
        for shard in list(self.ledger._pending) + list(self.ledger._leased):
            assert 1 <= shard.attempt <= limit
        assert all(f.attempts <= limit for f in self.ledger.failures)

    def teardown(self):
        """Finish the sweep: every seed must end done or quarantined."""
        if not hasattr(self, "ledger"):
            return
        for shard in self.held:
            for seed in shard.seeds:
                self.ledger.land(seed)
            self.ledger.release(shard, self.now)
        while True:
            ready_at = self.ledger.next_ready()
            if ready_at is None:
                break
            self.now = max(self.now, ready_at)
            shard = self.ledger.claim(self.now)
            if shard is None:
                continue
            for seed in shard.seeds:
                self.ledger.land(seed)
            self.ledger.release(shard, self.now)
        assert self.ledger.finished()
        assert self.ledger.done | self.ledger.quarantined >= self.seeds
        assert {f.seed for f in self.ledger.failures} == self.ledger.quarantined


LedgerMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)


def test_ledger_state_machine():
    with use_registry(MetricsRegistry()):
        LedgerMachine.TestCase().runTest()


def test_late_upload_after_revocation_counts_once():
    ledger = RetryLedger([(0, 1, 2)], RetryPolicy(), "ledger")
    with use_registry(MetricsRegistry()):
        stale = ledger.claim(now=0.0)
        assert ledger.land(0)
        ledger.release(stale, now=1.0)  # revoked blame-free
        fresh = ledger.claim(now=1.0)
        assert fresh.seeds == (1, 2) and fresh.attempt == 1
        assert ledger.land(1)  # the revoked holder's late upload
        assert not ledger.land(1)  # ...and the re-lease's duplicate
        ledger.fail(stale, "error", "late", now=1.0)  # stale: no charge
        assert ledger.failures == [] and ledger.pending == 0
        assert not ledger.finished()
        assert ledger.land(2)
        assert ledger.finished()


def test_metrics_and_instants_are_scoped():
    registry = MetricsRegistry()
    ledger = RetryLedger([(0, 1)], RetryPolicy(max_attempts=1), "service")
    with use_registry(registry):
        ledger.fail(ledger.claim(0.0), "timeout", "hung", 0.0)  # bisect
        ledger.fail(ledger.claim(0.0), "crash", "died", 0.0)  # quarantine
    counters = registry.snapshot()["counters"]
    assert counters["service.timeouts"] == 1
    assert counters["service.bisections"] == 1
    assert counters["service.quarantined"] == 1
    assert "service.retries" not in counters
    assert [(f.seed, f.kind) for f in ledger.failures] == [(0, "crash")]
