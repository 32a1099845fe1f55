"""Exact scalar arithmetic over F_p (p an odd prime), F_{p^2} and Q.

A scalar is a plain immutable payload:

* prime field      -- an ``int`` residue in ``[0, p)``,
* quadratic ext    -- a pair ``(a, b)`` encoding ``a + b*w`` with ``w**2 = d``
                      for a fixed public non-residue ``d``,
* rationals        -- a ``fractions.Fraction`` (always reduced, positive
                      denominator); only :class:`RationalField` knows the
                      type, and it imports ``fractions`` when it is built,
                      so a finite-field process never loads it.

The :class:`Field` object owns all arithmetic on the payloads.  Payloads are
canonical, so ``==`` is semantic equality and the natural payload ordering
(int / tuple / Fraction) is the order used to pick a canonical square root.
There is no floating point anywhere; every operation is exact.

Characteristic two is rejected globally: the symmetric theory needs
``1/2`` and we keep one rule for both kinds of form.
"""

from __future__ import annotations

import re
from functools import reduce
from math import isqrt
from operator import mul

from .errors import (
    CharTwoUnsupported,
    CompositeModulus,
    ConsistencyCheckFailed,
    MalformedInput,
    ModulusTooLarge,
    ResidueIsSquare,
)

# Miller-Rabin to these bases decides every n below the bound (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PROVEN_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses an n it cannot decide."""
    if n >= PROVEN_PRIME_BOUND:
        raise ModulusTooLarge(f"primality is proven only below {PROVEN_PRIME_BOUND}; {n} is refused")
    if n < 2 or any(n % a == 0 for a in PRIME_BASES):
        return n in PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    for a in PRIME_BASES:  # n is a strong probable prime to base a, or composite
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


class Field:
    """Common interface of the three scalar domains.

    Subclasses fix the payload representation and must provide ``zero``,
    ``one``, ``add``, ``sub``, ``neg``, ``mul``, ``inv``, ``parse``,
    ``render`` and ``random``.  The row methods (``dot``, ``axpy``,
    ``scale_row``, ``random_row``, ``lincomb``, ``matmul``), ``polyval``
    and the finite-field ``sqrt`` are written here once from those, and
    the rationals bring their own sqrt.  A field overrides one of them,
    with the same values (for ``random_row``, the same draws), only where
    that pays on a run that calls it: F_p overrides ``dot``, ``axpy``
    (which ``lincomb`` runs on), ``random_row`` and ``polyval``.
    """

    kind: str = ""
    order: int | None = None  # None for infinite fields

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero

    def pow(self, a, n: int):
        """Square-and-multiply; negative exponents go through ``inv``."""
        if n < 0:
            return self.pow(self.inv(a), -n)
        result = self.one
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def from_int(self, n: int):
        raise NotImplementedError

    def dot(self, u, v):
        """sum_i u_i v_i, zero for empty rows."""
        products = map(self.mul, u, v)
        return reduce(self.add, products, next(products, self.zero))

    def axpy(self, a, x, y) -> list:
        """The row y + a x, keeping y's entry where x is zero (cheap for sparse x)."""
        add, mul, zero = self.add, self.mul, self.zero
        return [t if s == zero else add(t, mul(a, s)) for s, t in zip(x, y)]

    def scale_row(self, c, x) -> list:
        """The row c x."""
        mul = self.mul
        return [mul(c, s) for s in x]

    def random_row(self, rng, n: int) -> list:
        """n draws of :meth:`random`, in order."""
        rand = self.random
        return [rand(rng) for _ in range(n)]

    def lincomb(self, coeffs, rows, n: int) -> list:
        """sum_i c_i rows_i over the non-zero c_i, or n zeros when there
        are none; every row has length n."""
        zero = self.zero
        acc = [zero] * n
        for c, row in zip(coeffs, rows):
            if c != zero:
                acc = self.axpy(c, row, acc)
        return acc

    def matmul(self, arows, brows, n: int) -> list:
        """The rows of the product A B, for A's rows ``arows`` and B's rows
        ``brows`` of length n: row i is sum_k a_ik brows_k.  The non-zero
        entries of each row of B are read once per product."""
        add, mul, zero = self.add, self.mul, self.zero
        nonzero = [[(j, s) for j, s in enumerate(row) if s != zero] for row in brows]
        out = []
        for arow in arows:
            acc = [zero] * n
            for c, entries in zip(arow, nonzero):
                if c != zero:
                    for j, s in entries:
                        acc[j] = add(acc[j], mul(c, s))
            out.append(acc)
        return out

    def polyval(self, terms, values):
        """sum of c * prod values[i] over compiled terms ``(c, idxs)``
        (see ``Polynomial.compiled``), zero for no terms."""
        add, mul = self.add, self.mul
        total = self.zero
        for c, idxs in terms:
            for i in idxs:
                c = mul(c, values[i])
            total = add(total, c)
        return total

    def sqrt(self, x):
        """Canonical square root of x in a finite field, or None when x is
        a non-residue: the smaller payload of the two roots r and -r."""
        if x == self.zero:
            return x
        r = _sqrt_ladder(self, x)
        if r is None:
            return None
        return min(r, self.neg(r))

    def elements(self):
        """Iterate all field elements in canonical order (finite fields only)."""
        raise NotImplementedError(f"{self.kind} field is not enumerable")

    def descriptor(self) -> dict:
        return {"kind": self.kind}

    def __eq__(self, other):
        return other is self or isinstance(other, Field) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(tuple(sorted(self.descriptor().items())))

    def __repr__(self):
        return f"Field({self.descriptor()})"


class PrimeField(Field):
    """F_p for an odd prime p; payloads are ints in ``[0, p)``."""

    kind = "prime"

    def __init__(self, p: int):
        self.p = p
        self.order = p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n: int):
        return n % self.p

    def elements(self):
        return iter(range(self.p))

    def random(self, rng):
        return rng.randrange(self.p)

    # The overrides, on native ints with few % p.  CPU medians of 10
    # alternating fresh runs with and without each, on a 2-vCPU host, on
    # sampled sym e3f6/F_7 runs, which call all four:
    # `sample --params 2,1 --count 3000` 0.67 -> 0.85 s (dot), 0.75 s
    # (axpy), 0.77 s (random_row); `verify all` 1.30 -> 2.07 s (polyval),
    # 1.37 s (axpy), and 1.33 -> 1.52 s with one % p per factor rather
    # than per term in polyval (p = 32003: 1.72 -> 1.86 s; 8 runs).  None
    # shows on perfbench: the two exhaustive-f7 processes call dot / axpy /
    # polyval 1420 / 192 / 862 and 2052 / 353 / 2154 times and random_row
    # never, and the atlas-f7 ones call none of them.

    def dot(self, u, v):
        return sum(map(mul, u, v)) % self.p

    def axpy(self, a, x, y) -> list:
        p = self.p
        return [(t + a * s) % p for s, t in zip(x, y)]

    def random_row(self, rng, n: int) -> list:
        # CPython's rng.randrange(p), inlined: getrandbits(p.bit_length())
        # until the value is below p; the tests hold the two streams equal
        p, bits, getrandbits = self.p, self.p.bit_length(), rng.getrandbits
        row = []
        while len(row) < n:
            r = getrandbits(bits)
            if r < p:
                row.append(r)
        return row

    def polyval(self, terms, values):
        p = self.p
        total = 0
        for c, idxs in terms:
            for i in idxs:
                c *= values[i]
            total += c % p
        return total % p

    def parse(self, s: str):
        return int(s, 10) % self.p

    def render(self, a) -> str:
        return str(a)

    def descriptor(self) -> dict:
        return {"kind": "prime", "p": self.p}


class QuadraticExtensionField(Field):
    """F_{p^2} = F_p(w) with w^2 = d for a fixed non-residue d.

    Payloads are pairs ``(a, b)`` of residues meaning ``a + b*w``.
    """

    kind = "quadratic-extension"

    def __init__(self, p: int, nonresidue: int):
        self.p = p
        self.d = nonresidue % p
        self.order = p * p
        self.zero = (0, 0)
        self.one = (1, 0)
        self.w = (0, 1)

    def add(self, a, b):
        p = self.p
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def sub(self, a, b):
        p = self.p
        return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)

    def neg(self, a):
        p = self.p
        return (-a[0] % p, -a[1] % p)

    def mul(self, a, b):
        p = self.p
        a0, a1 = a
        b0, b1 = b
        return ((a0 * b0 + self.d * a1 * b1) % p, (a0 * b1 + a1 * b0) % p)

    def inv(self, a):
        # 1/(a0 + a1 w) = (a0 - a1 w) / (a0^2 - d a1^2); the norm is zero
        # only at zero because d is a non-residue.
        p = self.p
        a0, a1 = a
        n = (a0 * a0 - self.d * a1 * a1) % p
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        ni = pow(n, p - 2, p)
        return (a0 * ni % p, -a1 * ni % p)

    def from_int(self, n: int):
        return (n % self.p, 0)

    def elements(self):
        p = self.p
        return ((a, b) for a in range(p) for b in range(p))

    def random(self, rng):
        return (rng.randrange(self.p), rng.randrange(self.p))

    _EXT_RE = re.compile(r"\s*(?:(-?\d+)\s*\+)?\s*(-?\d+)\s*\*\s*w\s*\Z")

    def parse(self, s: str):
        m = self._EXT_RE.match(s)
        if m is None:
            return (int(s, 10) % self.p, 0)
        a = int(m.group(1)) if m.group(1) is not None else 0
        b = int(m.group(2))
        return (a % self.p, b % self.p)

    def render(self, a) -> str:
        a0, a1 = a
        if a1 == 0:
            return str(a0)
        if a0 == 0:
            return f"{a1}*w"
        return f"{a0}+{a1}*w"

    def descriptor(self) -> dict:
        return {"kind": "quadratic-extension", "p": self.p, "nonresidue": self.d}


class RationalField(Field):
    """Arbitrary-precision rationals; payloads are ``fractions.Fraction``."""

    kind = "rationals"

    def __init__(self):
        from fractions import Fraction

        self.fraction = Fraction
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def from_int(self, n: int):
        return self.fraction(n)

    def random(self, rng):
        return self.fraction(rng.randint(-20, 20), rng.randint(1, 12))

    def sqrt(self, x):
        """Exact square root when x is the square of a rational, else None.

        The non-negative root is the canonical one.
        """
        if x < 0:
            return None
        num, den = x.numerator, x.denominator
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn != num or rd * rd != den:
            return None
        return self.fraction(rn, rd)

    def parse(self, s: str):
        return self.fraction(s)

    def render(self, a) -> str:
        return str(a)


def _sqrt_ladder(field: Field, x):
    """Square root in a finite field of odd order (Tonelli-Shanks).

    Returns one root of x (not canonicalized) or None for non-residues.
    """
    q = field.order
    one = field.one
    if field.pow(x, (q - 1) // 2) != one:
        return None
    t, s = q - 1, 0
    while t % 2 == 0:
        t //= 2
        s += 1
    # any non-square works as the descent seed; scan canonically
    z = None
    for cand in field.elements():
        if field.is_zero(cand):
            continue
        if field.pow(cand, (q - 1) // 2) != one:
            z = cand
            break
    m = s
    c = field.pow(z, t)
    u = field.pow(x, t)
    r = field.pow(x, (t + 1) // 2)
    while u != one:
        i, tmp = 0, u
        while tmp != one:
            tmp = field.mul(tmp, tmp)
            i += 1
        b = c
        for _ in range(m - i - 1):
            b = field.mul(b, b)
        m = i
        c = field.mul(b, b)
        u = field.mul(u, c)
        r = field.mul(r, b)
    return r


def smallest_nonresidue(p: int) -> int:
    """Smallest quadratic non-residue modulo the odd prime p."""
    for d in range(2, p):
        if pow(d, (p - 1) // 2, p) == p - 1:
            return d
    raise ConsistencyCheckFailed(f"no non-residue below {p}")  # impossible for odd primes p


def field_create(kind: str, p: int | None = None, nonresidue: int | None = None) -> Field:
    """Build a field descriptor.

    ``kind`` is one of ``prime``, ``quadratic-extension``, ``rationals``.
    For finite kinds ``p`` must be an odd prime; for the extension the
    generator's square ``nonresidue`` is validated or, when omitted,
    auto-searched (smallest non-residue).
    """
    if kind not in ("prime", "quadratic-extension", "rationals"):
        raise ValueError(f"unknown field kind {kind!r}")
    if nonresidue is not None and kind != "quadratic-extension":
        raise TypeError(f"{kind} fields take no nonresidue")
    if kind == "rationals":
        if p is not None:
            raise TypeError("rationals take no modulus p")
        return RationalField()
    if p is None:
        raise TypeError("finite fields need a modulus p")
    if p == 2:
        raise CharTwoUnsupported("characteristic 2 is not supported")
    if not _is_prime(p):
        raise CompositeModulus(f"{p} is not prime")
    if kind == "prime":
        return PrimeField(p)
    if nonresidue is None:
        nonresidue = smallest_nonresidue(p)
    else:
        nonresidue %= p
        if nonresidue == 0 or pow(nonresidue, (p - 1) // 2, p) == 1:
            raise ResidueIsSquare(f"{nonresidue} is a square modulo {p}")
    return QuadraticExtensionField(p, nonresidue)


def field_from_json(obj: dict) -> Field:
    """Inverse of ``Field.descriptor()``, whose keys are the parameters of
    :func:`field_create`, with integer values but for the kind; any other
    shape raises MalformedInput."""
    try:
        if isinstance(obj, dict) and all(type(v) is int for k, v in obj.items() if k != "kind"):
            return field_create(**obj)
    except (TypeError, ValueError):  # a key field_create does not take, or an unknown kind
        pass
    raise MalformedInput('expected a field as {"kind": "rationals"} or '
                         '{"kind": "prime" | "quadratic-extension", "p": <integer>}')
