"""The Raft log's duplicate-proposal index (``RaftLog.contains_command``).

A seeded property test drives random mutation sequences — leader appends,
conflicting AppendEntries, compaction, InstallSnapshot and (for the
durable log) a WAL reopen — over hashable and unhashable commands, and
after every step compares ``contains_command`` against a brute-force scan
of the retained entries.  A second test pins the point of the index: a
10k-entry log answers without comparing the query to its entries.
"""

import random

import pytest

from repro.algorithms.raft.log import Entry, RaftLog
from repro.storage import DurableRaftLog, RaftStorage

#: Commands drawn with repetition, so duplicates are common.  Lists are
#: unhashable and force the scan fallback while retained.
POOL = (
    [f"c{i}" for i in range(6)]
    + [("t", i) for i in range(4)]
    + [["l", i] for i in range(3)]
)
#: Queries include commands never appended and an unhashable query
#: equal to nothing in the pool.
QUERIES = POOL + ["absent", ("t", 99), ["l", 99]]


def brute_force(log, command):
    return any(entry.command == command for entry in log.as_list())


def check(log):
    for command in QUERIES:
        assert log.contains_command(command) == brute_force(log, command), command


def mutate(rng, log, term):
    """Apply one random mutation; returns the (possibly advanced) term."""
    op = rng.choice(("append", "append", "append", "conflict", "compact", "snapshot"))
    if op == "append":
        log.append_new(Entry(term, rng.choice(POOL)))
    elif op == "conflict":
        # A newer leader overwrites a suffix (or extends the log).
        term += 1
        prev = rng.randint(log.snapshot_index, log.last_index)
        entries = [Entry(term, rng.choice(POOL)) for _ in range(rng.randint(1, 4))]
        assert log.try_append(prev, log.term_at(prev), entries)
    elif op == "compact" and log.last_index > log.snapshot_index:
        log.compact_to(rng.randint(log.snapshot_index + 1, log.last_index))
    elif op == "snapshot":
        if rng.random() < 0.5 and log.last_index > log.snapshot_index:
            index = rng.randint(log.snapshot_index + 1, log.last_index)
            log.install_snapshot(index, log.term_at(index))  # keeps the suffix
        else:
            term += 1
            log.install_snapshot(log.last_index + rng.randint(0, 3) + 1, term)
    return term


@pytest.mark.parametrize("seed", range(20))
def test_index_matches_brute_force(seed):
    rng = random.Random(seed)
    log, term = RaftLog(), 1
    for _ in range(150):
        term = mutate(rng, log, term)
        check(log)
    check(RaftLog(log.as_list()))  # an index built at construction


@pytest.mark.parametrize("seed", range(5))
def test_durable_index_survives_reopen(tmp_path, seed):
    rng = random.Random(seed)
    directory = str(tmp_path)
    storage = RaftStorage(directory, sync_policy="none")
    log, term = DurableRaftLog(storage, lambda: {"image": seed}), 1
    try:
        for step in range(120):
            term = mutate(rng, log, term)
            check(log)
            if step % 30 == 29:
                expected = log.as_list()
                storage.close()
                storage = RaftStorage(directory, sync_policy="none")
                log = DurableRaftLog(storage, lambda: {"image": seed})
                assert log.as_list() == expected
                check(log)
    finally:
        storage.close()


def test_unhashable_query_can_match_hashable_entry():
    log = RaftLog([Entry(1, frozenset({1, 2}))])
    assert log.contains_command({1, 2})  # set == frozenset, unhashable query
    assert not log.contains_command({3})


class Counted:
    """A hashable command that counts every equality comparison."""

    comparisons = 0

    def __init__(self, n):
        self.n = n

    def __hash__(self):
        return hash(self.n)

    def __eq__(self, other):
        Counted.comparisons += 1
        return isinstance(other, Counted) and other.n == self.n


def test_large_log_answers_without_comparing_entries():
    log = RaftLog()
    for n in range(10_000):
        log.append_new(Entry(1, Counted(n)))
    Counted.comparisons = 0
    assert not log.contains_command(Counted(-1))
    assert Counted.comparisons == 0
    # A hit on an equal (not identical) command confirms one bucket.
    assert log.contains_command(Counted(5_000))
    assert Counted.comparisons <= 1
