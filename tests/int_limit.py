"""Helpers for tests at the int/str conversion limit: `int_max_str_digits`, the one way
the tests change the limit, `least_reaching`, the edge of a printed-size rule in plain
integers, and `recorded_digit_checks`, which shows what a rule hands to
`littlewood._check_digits`."""
import sys
from contextlib import contextmanager
from unittest import mock


@contextmanager
def int_max_str_digits(limit: int):
    """Run the block under `sys.set_int_max_str_digits(limit)`, then restore the old limit."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def least_reaching(scale: int, n: int, limit: int) -> int:
    """The least x >= 1 with scale * x^n >= 10^limit, by Newton's integer n-th root."""
    target = -(-10**limit // scale)  # x^n must reach this
    x = 1 << -(-target.bit_length() // n)  # x^n >= 2^bitlen > target
    while True:  # from above, Newton's step falls to the floor of the root
        y = ((n - 1) * x + target // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    return x if x**n >= target else x + 1


@contextmanager
def recorded_digit_checks(module):
    """Run the block with `module._check_digits` recording (low_bits, value()) of each call
    before it decides as before, and yield the list of records."""
    from littlewood import _check_digits

    seen = []

    def record(what, low_bits, value):
        seen.append((low_bits, value()))
        return _check_digits(what, low_bits, value)

    with mock.patch.object(module, "_check_digits", record):
        yield seen
