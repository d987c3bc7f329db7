"""Set-partition enumeration and compressed profiles with exact counts.

A set partition of {1..m} is represented as a tuple of blocks, each block a
tuple of ascending integers, blocks ordered by smallest element.  The raw
enumerator is an oracle for tests only.  The profile streams compress the
partition sums to a few dozen multiplicity-weighted terms; they serve the
direct routes `fekete_limit_direct` and `galois_limit_direct` and the test
oracles of the shifted limit, and no command loads this module.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import factorial

MAX_ENUMERATION = 13


@dataclass(frozen=True)
class SizeProfile:
    """Multiset of block sizes with the number of set partitions realizing it."""

    sizes: tuple[int, ...]
    count: int


@dataclass(frozen=True)
class EvenBlockProfile:
    """Multiset of (half_size, high_count) block descriptors for even
    partitions of {1..2q}, where high_count is the number of elements of the
    block exceeding q, with the number of partitions realizing it."""

    entries: tuple[tuple[int, int], ...]
    count: int


def enumerate_set_partitions(m: int):
    """Yield every set partition of {1..m} exactly once (Bell(m) in total).

    Guarded at m <= 13: this is a brute-force oracle, not a production path.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > MAX_ENUMERATION:
        raise ValueError(
            f"refusing set-partition enumeration for m={m} > {MAX_ENUMERATION}"
        )
    # Restricted growth strings: element i joins block a[i] <= 1 + max(a[:i]).
    assignment = [0] * m

    def rec(i: int, peak: int):
        if i == m:
            blocks: list[list[int]] = [[] for _ in range(peak + 1)]
            for elem, blk in enumerate(assignment, start=1):
                blocks[blk].append(elem)
            yield tuple(tuple(b) for b in blocks)
            return
        for v in range(peak + 2):
            assignment[i] = v
            yield from rec(i + 1, max(peak, v))

    yield from rec(1, 0)


def _integer_partitions(total: int, cap: int | None = None):
    """Nonincreasing tuples of positive integers summing to `total`."""
    cap = total if cap is None else cap
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap), 0, -1):
        for rest in _integer_partitions(total - first, first):
            yield (first,) + rest


def _exact_quotient(num: int, den: int) -> int:
    if num % den:
        raise ArithmeticError("profile count is not integral")
    return num // den


def even_size_profiles(q: int):
    """Size multisets {2N_1, ..., 2N_l} of even partitions of a 2q-set.

    Each profile carries count = (2q)! / (prod (2N_i)! * prod mult_s!), the
    number of set partitions realizing the multiset.  Profiles stream in
    lexicographic order of their ascending-sorted entries.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    profiles = []
    for parts in _integer_partitions(q):
        sizes = tuple(sorted(2 * p for p in parts))
        den = 1
        for s in sizes:
            den *= factorial(s)
        for mult in Counter(sizes).values():
            den *= factorial(mult)
        profiles.append(SizeProfile(sizes, _exact_quotient(factorial(2 * q), den)))
    profiles.sort(key=lambda p: p.sizes)
    yield from profiles


def galois_size_profiles(q: int):
    """Size multisets {N_1, ..., N_l} of all partitions of a q-set.

    count = q! / (prod N_i! * prod mult_s!); the multinomial factor the limit
    evaluation applies per partition is *not* folded in here.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    profiles = []
    for parts in _integer_partitions(q):
        sizes = tuple(sorted(parts))
        den = 1
        for s in sizes:
            den *= factorial(s)
        for mult in Counter(sizes).values():
            den *= factorial(mult)
        profiles.append(SizeProfile(sizes, _exact_quotient(factorial(q), den)))
    profiles.sort(key=lambda p: p.sizes)
    yield from profiles


def even_block_profiles(q: int):
    """(half_size, high_count) multisets of even partitions of {1..2q}.

    A block of 2N elements with P of them above q consumes 2N-P elements of
    the low half {1..q} and P of the high half; profiles satisfy
    sum(2N_i - P_i) = sum(P_i) = q.  Each carries

        count = q! * q! / (prod (2N_i - P_i)! * prod P_i! * prod mult_t!),

    the number of even set partitions realizing the multiset: choose which
    low-half and which high-half elements enter each block, then divide by
    the symmetry of repeated (N, P) types.  Validated against brute-force
    enumeration in the test suite.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    types = sorted(
        (N, P)
        for N in range(1, q + 1)
        for P in range(max(0, 2 * N - q), min(2 * N, q) + 1)
    )
    profiles = []

    def rec(idx: int, low: int, high: int, chosen: list[tuple[int, int]]):
        if low == 0 and high == 0:
            entries = tuple(chosen)
            den = 1
            for N, P in entries:
                den *= factorial(2 * N - P) * factorial(P)
            for mult in Counter(entries).values():
                den *= factorial(mult)
            num = factorial(q) ** 2
            profiles.append(EvenBlockProfile(entries, _exact_quotient(num, den)))
            return
        for i in range(idx, len(types)):
            N, P = types[i]
            l, h = 2 * N - P, P
            if l <= low and h <= high:
                chosen.append((N, P))
                rec(i, low - l, high - h, chosen)
                chosen.pop()

    rec(0, q, q, [])
    profiles.sort(key=lambda p: p.entries)
    yield from profiles
