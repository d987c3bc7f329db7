"""Set-partition enumeration and compressed profiles with exact counts.

A set partition of {1..m} is represented as a tuple of blocks, each block a
tuple of ascending integers, blocks ordered by smallest element.  The raw
enumerator is an oracle for tests only.  The profile streams compress the
partition sums to a few dozen multiplicity-weighted terms; they serve the
direct routes `fekete_limit_direct` and `galois_limit_direct` and the test
oracles of the shifted limit, and no command loads this module.  All three
come from one enumerator, `_profiles`, of multisets of block types with one
count formula; each stream is a choice of types.  A stream yields plain
(multiset, count) pairs, a tuple of block types and the number of set
partitions realizing it, so dict(stream) is the profile map.  Each size is
checked by `littlewood._check_int`, with its one message, on the stream's
first item.
"""
from __future__ import annotations

from math import factorial

from littlewood import _check_int

MAX_ENUMERATION = 13


def enumerate_set_partitions(m: int):
    """Yield every set partition of {1..m} exactly once (Bell(m) in total).

    Guarded at m <= MAX_ENUMERATION = 13: a brute-force oracle, not a production path.
    """
    _check_int("m", m, 1, MAX_ENUMERATION)
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


def _profiles(types, low: int, high: int) -> list[tuple[tuple, int]]:
    """Multisets of block types (label, l, h), labels ascending, whose l's sum
    to `low` and h's to `high`, as (labels, count) in lexicographic order of
    the labels.  A block of a set partition of a low-set plus a high-set has
    type (label, l, h) when it takes l low and h high elements, and a multiset
    of types is realized by

        count = low! * high! / (prod l! * prod h! * prod mult!)

    set partitions: choose which low and which high elements enter each
    block, then divide by the symmetry of repeated types.  The division is
    checked to be exact (ArithmeticError otherwise).

    >>> dict(_profiles([(N, N, 0) for N in (1, 2, 3)], 3, 0))
    {(1, 1, 1): 1, (1, 2): 3, (3,): 1}
    """
    num = factorial(low) * factorial(high)
    weights = [factorial(l) * factorial(h) for _, l, h in types]
    profiles: list[tuple[tuple, int]] = []

    def rec(i: int, low: int, high: int, den: int, mult: int, chosen: tuple):
        # types before i are spent; chosen ends in mult copies of type i
        if not low and not high:
            if num % den:
                raise ArithmeticError("profile count is not integral")
            profiles.append((chosen, num // den))
            return
        for j in range(i, len(types)):
            label, l, h = types[j]
            if l <= low and h <= high:
                m = mult + 1 if j == i else 1
                rec(j, low - l, high - h, den * weights[j] * m, m, chosen + (label,))

    rec(0, low, high, 1, 0, ())
    return profiles


def even_size_profiles(q: int):
    """(sizes, count) pairs: the size multisets (2N_1, ..., 2N_l), ascending, of
    even partitions of a 2q-set.

    Blocks of size 2N are the type (2N, 2N, 0) of `_profiles` with low = 2q,
    so count = (2q)! / (prod (2N_i)! * prod mult_s!), the number of set
    partitions realizing the multiset.  Pairs stream in lexicographic order
    of their sizes.

    >>> dict(even_size_profiles(2))
    {(2, 2): 3, (4,): 1}
    """
    _check_int("q", q, 1)
    yield from _profiles([(2 * N, 2 * N, 0) for N in range(1, q + 1)], 2 * q, 0)


def galois_size_profiles(q: int):
    """(sizes, count) pairs: the size multisets (N_1, ..., N_l), ascending, of
    all partitions of a q-set, in lexicographic order of their sizes.

    Blocks of size N are the type (N, N, 0) of `_profiles` with low = q, so
    count = q! / (prod N_i! * prod mult_s!); the multinomial factor the limit
    evaluation applies per partition is *not* folded in here.
    """
    _check_int("q", q, 1)
    yield from _profiles([(N, N, 0) for N in range(1, q + 1)], q, 0)


def even_block_profiles(q: int):
    """(entries, count) pairs: the multisets of (half_size, high_count)
    entries (N, P), ascending, of even partitions of {1..2q}.

    A block of 2N elements with P of them above q is the type
    ((N, P), 2N-P, P) of `_profiles`, with low = high = q: it consumes 2N-P
    elements of the low half {1..q} and P of the high half.  Each multiset
    comes with

        count = q! * q! / (prod (2N_i - P_i)! * prod P_i! * prod mult_t!),

    the number of even set partitions realizing the multiset.  Validated
    against brute-force enumeration in the test suite.
    """
    _check_int("q", q, 1)
    types = [((N, P), 2 * N - P, P)
             for N in range(1, q + 1) for P in range(max(0, 2 * N - q), min(2 * N, q) + 1)]
    yield from _profiles(types, q, q)
