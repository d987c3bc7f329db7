"""The exact limits as moments: `is_stieltjes`, the Chebyshev algorithm in
`Fraction`s, checks that a sequence m_0, m_1, ... is a Stieltjes moment sequence.

Let X = |f(z)|^2 / ||f||_2^2 with z uniform on the unit circle.  A family's
limit ratio of order q is m_q = E[X^q] for every limit law of X, with m_0 = 1,
and X >= 0, so (m_q) is the moment sequence of a law on [0, inf).  From
m_0..m_(2n-1) the Chebyshev algorithm gives the three-term recurrence
pi_(k+1)(x) = (x - alpha_k) pi_k(x) - beta_k pi_(k-1)(x) of the monic
orthogonal polynomials (W. Gautschi, "Orthogonal Polynomials: Computation and
Approximation", 2004, section 2.1.7).  The moments are those of a law on
[0, inf) with n points or more exactly when every beta_k > 0 (the Hankel
determinants of m are positive) and every (-1)^k pi_k(0) > 0 (so are those of
the shifted sequence m_1, m_2, ...).  The check is exact, so a change of one
moment by a relative 1e-12 breaks it where the law is that close to the edge.

Run as a script, `PYTHONPATH=src python tests/moments.py` checks both
families' limits m_0..m_127 (64 nodes), with the standard library alone, and
exits 1 if either fails.
"""
import sys
import time
from fractions import Fraction


def is_stieltjes(moments) -> bool:
    """Whether m_0..m_(2n-1) are the first moments of a law on [0, inf) with at
    least n points: every beta_k > 0 and every (-1)^k pi_k(0) > 0, k <= n."""
    m = [Fraction(x) for x in moments]
    n = len(m) // 2
    if n == 0 or m[0] <= 0:
        return False
    # sigma[l] = <pi_k, x^l> for the current k; before is the same for k - 1
    before, sigma = [Fraction(0)] * len(m), m
    alpha, beta = m[1] / m[0], m[0]
    pi_before, pi = Fraction(1), -alpha  # pi_0(0) and pi_1(0)
    if pi >= 0:
        return False
    for k in range(1, n):
        before, sigma = sigma, [
            0 if l < k else sigma[l + 1] - alpha * sigma[l] - beta * before[l]
            for l in range(2 * n - k)
        ]
        if sigma[k] <= 0:  # beta_k = sigma_(k,k) / sigma_(k-1,k-1), the latter > 0
            return False
        alpha = sigma[k + 1] / sigma[k] - before[k] / before[k - 1]
        beta = sigma[k] / before[k - 1]
        pi_before, pi = pi, -alpha * pi - beta * pi_before
        if (-1) ** (k + 1) * pi <= 0:
            return False
    return True


def family_moments(family: str, count: int) -> list[Fraction]:
    """m_0 = 1 and the family's limit ratios m_q for q = 1..count - 1."""
    from littlewood.limits import limit_table

    return [Fraction(1), *limit_table(family, count - 1).values()]


def main(count: int = 128) -> int:
    failures = 0
    for family in ("fekete", "galois"):
        start = time.perf_counter()
        ok = is_stieltjes(family_moments(family, count))
        print("ok  " if ok else "FAIL", f"{family} m_0..m_{count - 1}",
              f"({time.perf_counter() - start:.1f} s)")
        failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
