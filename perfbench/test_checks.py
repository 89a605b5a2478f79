"""Each benchmark check passes on a valid input and fails on a corrupted one.

Run from the repository root::

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402


@pytest.fixture
def walkers():
    rng = np.random.default_rng(7)
    return rng.uniform(0, 100, size=(300, 2))


def brute_pairs(positions, r):
    delta = positions[:, None, :] - positions[None, :, :]
    d2 = (delta ** 2).sum(axis=2)
    i, j = np.nonzero(np.triu(d2 <= r * r, k=1))
    return set(zip(i.tolist(), j.tolist()))


def test_links_match_brute_force(walkers):
    expected = brute_pairs(walkers, 6.0)
    found = {tuple(p) for p in checks.pairs_in_range(walkers, 6.0).tolist()}
    assert found == expected and expected
    ids = list(range(len(walkers)))
    assert checks.check_links(walkers, ids, 6.0, expected) == []


def test_links_fail_on_missing_and_extra_link(walkers):
    ids = list(range(len(walkers)))
    links = brute_pairs(walkers, 6.0)
    dropped = set(links)
    dropped.pop()
    assert "no link" in checks.check_links(walkers, ids, 6.0, dropped)[0]
    far = max(((a, b) for a in range(5) for b in range(5, 10)),
              key=lambda p: np.hypot(*(walkers[p[0]] - walkers[p[1]])))
    extra = links | {far}
    assert "out-of-range" in checks.check_links(walkers, ids, 6.0, extra)[0]


def test_links_use_node_ids_not_rows():
    positions = np.array([[0.0, 0.0], [3.0, 0.0], [50.0, 0.0]])
    assert checks.check_links(positions, [10, 20, 30], 5.0, [(20, 10)]) == []
    assert checks.check_links(positions, [10, 20, 30], 5.0, [(0, 1)])


def memd_matrix():
    inf = np.inf
    return np.array([[0.0, 4.0, 1.0, inf],
                     [inf, 0.0, inf, 2.0],
                     [inf, 0.0, 0.0, 9.0],
                     [inf, inf, inf, 0.0]])


def test_memd_agrees_with_independent_solve():
    program = np.array([0.0, 1.0, 1.0, 3.0])
    assert checks.check_memd(program, memd_matrix(), 0) == []


def test_memd_fails_on_corrupted_vector():
    wrong = np.array([0.0, 1.0, 1.0, 3.0 + 1e-6])
    assert "delays differ" in checks.check_memd(wrong, memd_matrix(), 0)[0]
    unreachable = np.array([0.0, 1.0, 1.0, np.inf])
    assert "reachability" in checks.check_memd(unreachable, memd_matrix(), 0)[0]


def test_memd_matches_program_on_random_matrix():
    from repro.contacts.memd import dijkstra_delays

    rng = np.random.default_rng(3)
    md = rng.uniform(1, 100, size=(40, 40))
    md[rng.uniform(size=md.shape) < 0.7] = np.inf
    np.fill_diagonal(md, 0.0)
    assert checks.check_memd(dijkstra_delays(md, 5), md, 5) == []


def test_eev_counts_theorem_one():
    intervals = [[10.0, 20.0, 30.0], [5.0, 50.0], [8.0]]
    elapsed = [12.0, 60.0, 2.0]
    # peer 0: longer {20, 30}, within 12+10 -> {20}: 1/2
    # peer 1: overdue -> refresh over the window, <= 10 -> {5}: 1/2
    # peer 2: longer {8}, within 2+10 -> 1/1
    assert checks.theorem1_eev(intervals, elapsed, 10.0) == pytest.approx(2.0)
    assert checks.check_eev(2.0, intervals, elapsed, 10.0) == []
    assert checks.check_eev(2.0 + 1e-6, intervals, elapsed, 10.0)


def test_eev_matches_program_history():
    from repro.contacts.history import ContactHistory
    from repro.core.expectation import expected_encounter_value

    history = ContactHistory(owner_id=0, window_size=8)
    rng = np.random.default_rng(11)
    now = 0.0
    for _ in range(400):
        now += float(rng.exponential(20.0))
        history.record_contact(int(rng.integers(1, 30)), now)
    now += 15.0
    peers = history.peers()
    intervals = [history.intervals(p) for p in peers]
    elapsed = [history.elapsed_since(p, now) for p in peers]
    value = expected_encounter_value(history, now, 40.0)
    assert checks.check_eev(value, intervals, elapsed, 40.0) == []
    assert checks.check_eev(value * 1.01, intervals, elapsed, 40.0)


def test_transfers_accounting():
    assert checks.check_transfers(300, 3, 3, 100, np.array([50.0, 100.0])) == []
    assert checks.check_transfers(299, 3, 3, 100, np.array([]))
    assert checks.check_transfers(300, 3, 4, 100, np.array([]))
    assert checks.check_transfers(300, 3, 3, 100, np.array([0.0]))
    assert checks.check_transfers(300, 3, 3, 100, np.array([101.0]))


def test_router_accounting():
    assert checks.check_router_accounting(5, 10, 5, 4, 5) == []
    assert checks.check_router_accounting(5, 10, 4, 4, 5)


def test_movement_bounds_and_speed():
    before = np.array([[10.0, 10.0], [20.0, 5.0]])
    after = np.array([[11.0, 10.0], [20.0, 6.5]])
    assert checks.check_movement(before, after, 100.0, 50.0, 1.5) == []
    jumped = after.copy()
    jumped[0, 0] += 1.0
    assert "moved more" in checks.check_movement(before, jumped, 100.0,
                                                 50.0, 1.5)[0]
    off = after.copy()
    off[1, 1] = -0.1
    assert "off the" in checks.check_movement(before, off, 100.0, 50.0,
                                              1e9)[0]


def test_reports():
    latencies = np.array([10.0, 300.0])
    assert checks.check_reports(5, 2, latencies, 600.0, True) == []
    assert checks.check_reports(5, 0, np.array([]), 600.0, False) == []
    assert checks.check_reports(5, 0, np.array([]), 600.0, True)
    assert checks.check_reports(1, 2, latencies, 600.0, False)
    assert checks.check_reports(5, 3, latencies, 600.0, False)
    assert checks.check_reports(5, 2, np.array([10.0, -1.0]), 600.0, False)


def test_reports_fail_on_latency_past_ttl():
    latencies = np.array([10.0, 1200.0])
    assert checks.check_reports(5, 2, latencies, 1200.0, True) == []
    late = np.array([10.0, 1200.34])
    assert "later than the 1200 s TTL" in checks.check_reports(
        5, 2, late, 1200.0, True)[0]
    assert checks.check_ttl(late, 1200.0)
    assert checks.check_ttl(late, 1201.0) == []


def test_store():
    fresh = ['{"a": 1}', '{"a": 2}']
    assert checks.check_store(0, fresh, list(fresh)) == []
    assert checks.check_store(1, fresh, list(fresh))
    assert checks.check_store(0, fresh, ['{"a": 1}', '{"a": 3}'])
    assert checks.check_store(0, fresh, fresh[:1])
