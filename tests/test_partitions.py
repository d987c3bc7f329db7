"""Tests for set-partition enumeration and profile counting."""
from collections import Counter

from littlewood.partitions import (
    enumerate_set_partitions,
    even_block_profiles,
    even_size_profiles,
    galois_size_profiles,
)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140, 10: 115975}


def _is_even(partition):
    return all(len(block) % 2 == 0 for block in partition)


def test_enumeration_counts():
    for m, bell in BELL.items():
        if m <= 8:
            assert sum(1 for _ in enumerate_set_partitions(m)) == bell


def test_enumeration_yields_partitions():
    seen = set()
    for part in enumerate_set_partitions(4):
        flat = sorted(e for block in part for e in block)
        assert flat == [1, 2, 3, 4]
        assert all(block for block in part)
        seen.add(part)
    assert len(seen) == 15


def test_enumeration_m1():
    assert list(enumerate_set_partitions(1)) == [((1,),)]


def test_even_partitions_of_six():
    count = sum(1 for p in enumerate_set_partitions(6) if _is_even(p))
    assert count == 31


def test_even_size_profiles_small():
    profiles = dict(even_size_profiles(2))
    assert profiles == {(4,): 1, (2, 2): 3}
    assert dict(even_size_profiles(1)) == {(2,): 1}
    assert sum(count for _, count in even_size_profiles(3)) == 31


def test_even_size_profiles_match_enumeration():
    for q in (1, 2, 3):
        brute = Counter(
            tuple(sorted(len(b) for b in part))
            for part in enumerate_set_partitions(2 * q)
            if _is_even(part)
        )
        assert dict(even_size_profiles(q)) == dict(brute)


def test_galois_size_profiles_small():
    assert dict(galois_size_profiles(2)) == {(2,): 1, (1, 1): 1}
    q3 = dict(galois_size_profiles(3))
    assert q3 == {(3,): 1, (1, 2): 3, (1, 1, 1): 1}
    assert sum(q3.values()) == 5
    assert sum(count for _, count in galois_size_profiles(4)) == 15


def test_galois_size_profiles_match_enumeration():
    for q in range(1, 7):
        brute = Counter(
            tuple(sorted(len(b) for b in part))
            for part in enumerate_set_partitions(q)
        )
        assert dict(galois_size_profiles(q)) == dict(brute)


def _brute_block_profiles(q):
    brute = Counter()
    for part in enumerate_set_partitions(2 * q):
        if not _is_even(part):
            continue
        entries = tuple(
            sorted((len(b) // 2, sum(1 for e in b if e > q)) for b in part)
        )
        brute[entries] += 1
    return dict(brute)


def test_even_block_profiles_small():
    assert dict(even_block_profiles(1)) == {((1, 1),): 1}
    q2 = dict(even_block_profiles(2))
    assert q2 == {((2, 2),): 1, ((1, 1), (1, 1)): 2, ((1, 0), (1, 2)): 1}
    assert sum(q2.values()) == 4
    assert sum(count for _, count in even_block_profiles(3)) == 31


def test_even_block_profiles_match_enumeration():
    # anti-hallucination gate for the q!q!/(prod(2N-P)! prod P! prod mult!) formula
    for q in range(1, 6):
        assert dict(even_block_profiles(q)) == _brute_block_profiles(q)


def test_profile_totals_agree():
    for q in range(1, 9):
        total_sizes = sum(count for _, count in even_size_profiles(q))
        total_blocks = sum(count for _, count in even_block_profiles(q))
        assert total_sizes == total_blocks, q


def test_block_profile_budgets():
    for q in (3, 5, 8):
        for entries, count in even_block_profiles(q):
            assert sum(2 * N - P for N, P in entries) == q
            assert sum(P for _, P in entries) == q
            assert count > 0


def test_streams_are_canonically_ordered():
    # every item is a plain (multiset, count) pair, each multiset once, in order
    for stream in (even_size_profiles(6), galois_size_profiles(6), even_block_profiles(5)):
        items = list(stream)
        assert all(type(item) is tuple and len(item) == 2 for item in items)
        assert len(dict(items)) == len(items)
        keys = [key for key, _ in items]
        assert keys == sorted(keys)
