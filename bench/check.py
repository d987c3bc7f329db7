"""Independent checks of littlewood CLI records, run outside the timed region.

Oracles, one per kind of answer:

- exact norms: the coefficients are rebuilt here (Euler's criterion for
  Legendre symbols; an LFSR m-sequence for Galois polynomials) and raised to
  the q-th power with one big-integer multiplication by Kronecker
  substitution, sharing no code with the program's NTT engine;
- `limits` / `triangle`: the published values for q <= 8, the program's
  separate `*_limit_direct` partition-sum routes for q = 9, 10, and for
  q = 11..48 the committed reference table `reference_limits.json`, which
  `make_reference.py` wrote from the program at the baseline commit (a
  regression oracle, not an independent one);
- `phi --eval` / `--pieces`: the published closed forms of phi_2, phi_3 and
  phi_4, and for 5 <= q <= 6 the piecewise route against the pointwise one;
  phi_8 is pinned at the points equivalent to 1/4;
- `phi --min`: the enclosures contain 1/4 and the published phi_q(1/4).

`Checker.check` returns None for a correct record and a reason otherwise.
`corrupt` alters one checked value of a record; the benchmark feeds every
corrupted record back through the checker to show it is counted as an error.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference_limits.json"
REFERENCE_QMAX = 48
DIRECT_QMAX = 10  # the largest q the program's *_limit_direct routes accept

FEKETE_LIMITS = (
    Fraction(1), Fraction(5, 3), Fraction(19, 5), Fraction(3469, 315),
    Fraction(21565, 567), Fraction(7760593, 51975), Fraction(12478099, 19305),
    Fraction(643983856759, 212837625),
)
GALOIS_LIMITS = (
    Fraction(1), Fraction(4, 3), Fraction(11, 5), Fraction(92, 21),
    Fraction(15481, 1512), Fraction(411913, 15120), Fraction(2482927, 30888),
    Fraction(4181926481, 16216200),
)
PHI_QUARTER = (
    Fraction(1), Fraction(7, 6), Fraction(31, 20), Fraction(653, 280),
    Fraction(71735, 18144), Fraction(24880549, 3326400), Fraction(72207143, 4633200),
    Fraction(960901090937, 27243216000),
)
TRIANGLES = {
    "fekete": ((1,), (-2, 10, -2), (16, -184, 456, -184, 16),
               (-272, 5776, -30736, 55504, -30736, 5776, -272)),
    "galois": ((1,), (-1, 8, -1), (4, -76, 264, -76, 4),
               (-33, 1248, -9735, 22080, -9735, 1248, -33)),
}
QUARTER = Fraction(1, 4)
HALF = Fraction(1, 2)


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _add_const(c, a):
    return [Fraction(a[0]) + c] + [Fraction(x) for x in a[1:]]


def _scale(a, s):
    return [Fraction(x) * s for x in a]


def _half_minus_x(a):
    acc = [Fraction(0)]
    for c in reversed(a):
        acc = _add_const(c, _mul(acc, [HALF, Fraction(-1)]))
    return acc


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _closed_forms():
    """Published phi_2, phi_3, phi_4 on [0, 1/2]: (breakpoints, pieces)."""
    square = [1, -8, 16]  # (4R - 1)^2
    phi2 = _add_const(Fraction(7, 6), _scale(square, HALF))
    phi3 = _add_const(Fraction(31, 20), _scale(_mul(square, [3, -8, 16]), Fraction(3, 4)))
    left = _add_const(Fraction(653, 280), _scale(
        _mul(square, [625, -4216, 20208, -52736, 60416]), Fraction(1, 72)))
    return {
        2: ((Fraction(0), HALF), (_trim(phi2),)),
        3: ((Fraction(0), HALF), (_trim(phi3),)),
        4: ((Fraction(0), QUARTER, HALF), (_trim(left), _trim(_half_minus_x(left)))),
    }


CLOSED_FORMS = _closed_forms()


def _eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _eval_pieces(breakpoints, pieces, x):
    for lo, hi, piece in zip(breakpoints, breakpoints[1:], pieces):
        if lo <= x < hi or (x == hi == breakpoints[-1]):
            return _eval(piece, x)
    raise ValueError(f"{x} outside [{breakpoints[0]}, {breakpoints[-1]}]")


def _reduce(R: Fraction) -> Fraction:
    """The point of [0, 1/2) equivalent to R under phi's period 1/2."""
    return R - HALF * math.floor(R / HALF)


def _rat(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _dec(x) -> str:
    return f"{float(x):.12g}"


# --- exact norms -----------------------------------------------------------

def _legendre_row(p: int) -> list[int]:
    half = (p - 1) // 2
    return [0] + [1 if pow(j, half, p) == 1 else -1 for j in range(1, p)]


def _primitive_polynomial(k: int) -> int:
    """Smallest degree-k polynomial over GF(2) in which x has order 2^k - 1."""
    order, top = (1 << k) - 1, 1 << k
    for cand in range(top | 1, top << 1, 2):
        x = 1
        for step in range(1, order + 1):
            x <<= 1
            if x & top:
                x ^= cand
            if x == 1:
                break
        if x == 1 and step == order:
            return cand
    raise ValueError(f"no primitive polynomial of degree {k}")


def _galois_row(k: int) -> list[int]:
    """(-1)^Tr(theta^j), j < 2^k - 1, generated as an LFSR m-sequence."""
    poly, top = _primitive_polynomial(k), 1 << k

    def mulmod(a, b):
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= poly
        return r

    def trace(y):
        t, z = 0, y
        for _ in range(k):
            t ^= z
            z = mulmod(z, z)
        return t  # 0 or 1

    seq = [trace(1 << i) for i in range(k)]
    taps = [i for i in range(k) if poly >> i & 1]  # theta^k = sum of theta^i
    n = (1 << k) - 1
    for j in range(n - k):
        bit = 0
        for i in taps:
            bit ^= seq[j + i]
        seq.append(bit)
    return [-1 if s else 1 for s in seq]


def norm_2q(coeffs: list[int], q: int) -> int:
    """Sum of squared coefficients of f^q, by Kronecker substitution."""
    n = len(coeffs)
    if q == 1:
        return sum(c * c for c in coeffs)
    top = max(abs(c) for c in coeffs)
    bound = n ** (q - 1) * top**q  # every coefficient of f^q is at most this
    nbytes = (bound.bit_length() + 2 + 7) // 8
    bias = 1 << (8 * nbytes - 1)

    def ones(count):  # sum of 2^(8*nbytes*m) for m < count
        return int.from_bytes((b"\x01" + bytes(nbytes - 1)) * count, "little")

    packed = b"".join((c + bias).to_bytes(nbytes, "little") for c in coeffs)
    f_at = int.from_bytes(packed, "little") - bias * ones(n)
    out_len = q * (n - 1) + 1
    digits = (f_at**q + bias * ones(out_len)).to_bytes(out_len * nbytes, "little")
    total = 0
    for m in range(0, out_len * nbytes, nbytes):
        d = int.from_bytes(digits[m:m + nbytes], "little") - bias
        total += d * d
    return total


def _load_reference() -> dict[str, list[Fraction]]:
    """The committed limits table; its q <= 8 entries must be the published ones."""
    table = json.loads(REFERENCE_PATH.read_text())
    reference = {family: [_rat(v) for v in table[family]] for family in ("fekete", "galois")}
    for family, published in (("fekete", FEKETE_LIMITS), ("galois", GALOIS_LIMITS)):
        values = reference[family]
        if len(values) != REFERENCE_QMAX or tuple(values[:len(published)]) != published:
            raise RuntimeError(f"{REFERENCE_PATH.name}: the {family} entries are damaged")
    return reference


def _options(job: list[str]) -> dict:
    opts: dict = {"command": job[0]}
    i = 1
    while i < len(job):
        key = job[i][2:].replace("-", "_")
        if key in ("min", "pieces"):
            opts[key] = True
            i += 1
        else:
            opts.setdefault(key, []).append(job[i + 1])
            i += 2
    return opts


class Checker:
    """Checks CLI records; oracle values are cached for the life of the object."""

    def __init__(self):
        self._norms: dict = {}
        self._direct: dict = {}
        self._library = None
        self._reference = _load_reference()

    def _lib(self):
        # the program's second routes (direct partition sums, piecewise and
        # pointwise phi), imported only when a check needs them
        if self._library is None:
            from littlewood import limits
            self._library = limits
        return self._library

    def family_limit(self, family: str, q: int):
        published = FEKETE_LIMITS if family == "fekete" else GALOIS_LIMITS
        if q <= len(published):
            return published[q - 1]
        if q > DIRECT_QMAX:
            return self._reference[family][q - 1] if q <= REFERENCE_QMAX else None
        if (family, q) not in self._direct:
            lib = self._lib()
            direct = lib.fekete_limit_direct if family == "fekete" else lib.galois_limit_direct
            self._direct[family, q] = direct(q)
        return self._direct[family, q]

    def phi(self, q: int, R: Fraction):
        r = _reduce(R)
        if q in CLOSED_FORMS:
            return _eval_pieces(*CLOSED_FORMS[q], r)
        if q <= 6:
            return self._lib().phi_piecewise(q).evaluate(r)
        if r == QUARTER and q <= len(PHI_QUARTER):
            return PHI_QUARTER[q - 1]
        return None

    def norm(self, family: str, q: int, size: int, r: int | None) -> int:
        key = (family, q, size, r)
        if key not in self._norms:
            if family == "galois":
                coeffs = _galois_row(size) if q > 1 else [1] * ((1 << size) - 1)
            else:
                coeffs = _legendre_row(size)
                if family == "shifted":
                    coeffs = coeffs[r % size:] + coeffs[:r % size]
            self._norms[key] = norm_2q(coeffs, q)
        return self._norms[key]

    def check(self, job: list[str], returncode: int, stdout: str) -> str | None:
        if returncode != 0:
            return f"exit status {returncode}"
        try:
            record = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        if record.get("schema") != "v1" or record.get("command") != job[0]:
            return "wrong schema or command"
        if "error" in record:
            return f"error record: {record['error']}"
        try:
            return getattr(self, "_" + job[0])(_options(job), record["results"])
        except (KeyError, ValueError, TypeError, IndexError, ZeroDivisionError) as exc:
            return f"malformed record: {exc!r}"

    def _limits(self, opts, results):
        family, qmax = opts["family"][0], int(opts["qmax"][0])
        if [r["q"] for r in results] != list(range(1, qmax + 1)):
            return "wrong q list"
        for r in results:
            value = _rat(r["limit"])
            if r["limit_decimal"] != _dec(value):
                return f"q={r['q']}: decimal does not match the rational"
            expected = self.family_limit(family, r["q"])
            if expected is None:
                return f"no oracle for the {family} limit at q={r['q']}"
            if value != expected:
                return f"q={r['q']}: limit {value} != {expected}"
        return None

    def _triangle(self, opts, results):
        family, rows = opts["family"][0], int(opts["rows"][0])
        if [r["k"] for r in results] != list(range(1, rows + 1)):
            return "wrong row list"
        for r in results:
            k, values = r["k"], tuple(int(v) for v in r["values"])
            if len(values) != 2 * k - 1 or values != values[::-1]:
                return f"row {k} is not a palindrome of length {2 * k - 1}"
            if k <= len(TRIANGLES[family]) and values != TRIANGLES[family][k - 1]:
                return f"row {k} differs from the published row"
            limit = self.family_limit(family, k)
            if limit is None:
                return f"no oracle for the {family} limit at q={k}"
            if values[k - 1] != limit * math.factorial(2 * k - 1):
                return f"row {k}: middle entry disagrees with the limit"
        return None

    def _phi(self, opts, results):
        q = int(opts["q"][0])
        if "pieces" in opts:
            return self._pieces(q, results)
        (r,) = results
        if "eval" in opts:
            R = Fraction(opts["eval"][0])
            expected = self.phi(q, R)
            if expected is None:
                return f"no oracle for phi_{q}({R})"
            value = _rat(r["value"])
            if value != expected or r["value_decimal"] != _dec(value):
                return f"phi_{q}({R}) = {value}, expected {expected}"
            return None
        if "min" in opts:
            lo, hi = _rat(r["argmin_lo"]), _rat(r["argmin_hi"])
            vlo, vhi = _rat(r["min_lo"]), _rat(r["min_hi"])
            if not lo <= QUARTER <= hi:
                return f"argmin enclosure [{lo}, {hi}] misses 1/4"
            if not vlo <= PHI_QUARTER[q - 1] <= vhi:
                return f"value enclosure [{vlo}, {vhi}] misses phi_{q}(1/4)"
            return None
        return "unknown phi mode"

    def _pieces(self, q, results):
        bps = [_rat(results[0]["lo"])] + [_rat(p["hi"]) for p in results]
        pieces = [tuple(_rat(c) for c in p["coefficients"]) for p in results]
        if [p["piece"] for p in results] != list(range(len(results))):
            return "wrong piece numbering"
        if q in CLOSED_FORMS:
            if (tuple(bps), tuple(pieces)) != CLOSED_FORMS[q]:
                return f"pieces of phi_{q} differ from the closed form"
            return None
        for lo, hi, piece in zip(bps, bps[1:], pieces):
            mid = (lo + hi) / 2
            if _eval(piece, mid) != self._lib().shifted_fekete_limit(q, mid):
                return f"piece on [{lo}, {hi}] disagrees with the pointwise route"
        return None

    def _empirical(self, opts, results):
        family, q = opts["family"][0], int(opts["q"][0])
        sizes = [int(s) for s in opts["p" if family != "galois" else "k"]]
        if len(results) != len(sizes):
            return "wrong number of rows"
        for size, r in zip(sizes, results):
            n = (1 << size) - 1 if family == "galois" else size
            shift = None
            if family == "shifted":
                if "shift_ratio" in opts:
                    R = Fraction(opts["shift_ratio"][0])
                    shift = math.floor(R * size + HALF)
                    limit = self.phi(q, R)
                else:
                    shift = int(opts["shift"][0])
                    limit = self.phi(q, Fraction(shift, size))
            else:
                limit = self.family_limit(family, q)
            if limit is None:
                return f"no oracle for the {family} limit at q={q}"
            norm = int(r["exact_norm"])
            ratio = Fraction(norm, n**q)
            err = ratio - limit
            if r["n"] != n:
                return f"row n={r['n']} where {n} was asked"
            if norm != self.norm(family, q, size, shift):
                return f"n={n}: exact norm {norm} is wrong"
            if _rat(r["ratio"]) != ratio or _rat(r["limit"]) != limit:
                return f"n={n}: ratio or limit is wrong"
            if r["abs_err"] != _dec(abs(err)) or r["rel_err"] != _dec(abs(err / limit)):
                return f"n={n}: error columns do not match"
        return None


def corrupt(job: list[str], stdout: str) -> str:
    """The record with one checked value of its last result off by one.

    The last result of `limits --qmax 48` is checked against the reference
    table, so the self-check covers that oracle too.
    """
    record = json.loads(stdout)
    last = record["results"][-1]
    key = {
        "limits": "limit", "triangle": "values", "empirical": "exact_norm",
    }.get(job[0])
    if key is None:
        key = next(k for k in ("value", "coefficients", "min_lo") if k in last)
    if key == "min_lo":
        last["min_lo"] = last["min_hi"] = _bump(last["min_hi"])
    elif isinstance(last[key], list):
        last[key][0] = _bump(last[key][0])
    else:
        last[key] = _bump(last[key])
    if key == "limit":  # keep the decimal consistent, so the limit oracle decides
        last["limit_decimal"] = _dec(_rat(last["limit"]))
    return json.dumps(record)


def _bump(text: str) -> str:
    if "/" in text:
        x = _rat(text) + 1
        return f"{x.numerator}/{x.denominator}"
    return str(int(text) + 1)
