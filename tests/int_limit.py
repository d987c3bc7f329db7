"""`int_max_str_digits`, the one way the tests change the int/str conversion limit."""
import sys
from contextlib import contextmanager


@contextmanager
def int_max_str_digits(limit: int):
    """Run the block under `sys.set_int_max_str_digits(limit)`, then restore the old limit."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
