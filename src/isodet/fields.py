"""Exact scalar arithmetic over F_p (p an odd prime), F_{p^2} and Q.

A scalar is a plain immutable payload:

* prime field      -- an ``int`` residue in ``[0, p)``,
* quadratic ext    -- a pair ``(a, b)`` encoding ``a + b*w`` with ``w**2 = d``
                      for a fixed public non-residue ``d``,
* rationals        -- a ``fractions.Fraction`` (always reduced, positive
                      denominator).

The :class:`Field` object owns all arithmetic on the payloads.  Payloads are
canonical, so ``==`` is semantic equality and the natural payload ordering
(int / tuple / Fraction) is the order used to pick a canonical square root.
There is no floating point anywhere; every operation is exact.

Characteristic two is rejected globally: the symmetric theory needs
``1/2`` and we keep one rule for both kinds of form.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import reduce
from math import isqrt

from .errors import CharTwoUnsupported, CompositeModulus, ConsistencyCheckFailed, ResidueIsSquare


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


class Field:
    """Common interface of the three scalar domains.

    Subclasses fix the payload representation and must provide ``zero``,
    ``one``, ``add``, ``sub``, ``neg``, ``mul``, ``inv``, ``sqrt``,
    ``parse``, ``render``, ``random`` and ``descriptor``.  The row methods
    (``dot``, ``axpy``, ``scale_row``, ``random_row``) are written here once
    from those; a field may override them with the same values and draws.
    """

    kind: str = ""
    order: int | None = None  # None for infinite fields
    char: int = 0

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
        """The row y + a x."""
        add, mul = self.add, self.mul
        return [add(t, mul(a, s)) for s, t in zip(x, y)]

    def scale_row(self, c, x) -> list:
        """The row c x."""
        mul = self.mul
        return [mul(c, s) for s in x]

    def random_row(self, rng, n: int) -> list:
        """n draws of :meth:`random`, in order."""
        rand = self.random
        return [rand(rng) for _ in range(n)]

    def elements(self):
        """Iterate all field elements in canonical order (finite fields only)."""
        raise NotImplementedError(f"{self.kind} field is not enumerable")

    def descriptor(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and self.descriptor() == other.descriptor()

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
        self.char = p
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

    def pow(self, a, n: int):
        if n < 0:
            return pow(self.inv(a), -n, self.p)
        return pow(a, n, self.p)

    def from_int(self, n: int):
        return n % self.p

    def elements(self):
        return iter(range(self.p))

    def random(self, rng):
        return rng.randrange(self.p)

    # the row methods on native ints, one reduction per entry

    def dot(self, u, v):
        return sum(map(operator.mul, u, v)) % self.p

    def axpy(self, a, x, y) -> list:
        p = self.p
        return [(t + a * s) % p for s, t in zip(x, y)]

    def scale_row(self, c, x) -> list:
        p = self.p
        return [c * s % p for s in x]

    def random_row(self, rng, n: int) -> list:
        draw, p = rng.randrange, self.p
        return [draw(p) for _ in range(n)]

    def sqrt(self, x):
        """Canonical square root of x, or None when x is a non-residue.

        Of the two roots r and p-r the smaller residue is returned.
        """
        if x == 0:
            return 0
        r = _sqrt_ladder(self, x)
        if r is None:
            return None
        return min(r, self.p - r)

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
        self.char = p
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

    def sqrt(self, x):
        """Canonical square root, or None; picks the lexicographically
        smaller of the pair of roots."""
        if x == self.zero:
            return self.zero
        r = _sqrt_ladder(self, x)
        if r is None:
            return None
        return min(r, self.neg(r))

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
        return Fraction(n)

    def random(self, rng):
        return Fraction(rng.randint(-20, 20), rng.randint(1, 12))

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
        return Fraction(rn, rd)

    def parse(self, s: str):
        return Fraction(s)

    def render(self, a) -> str:
        return str(a)

    def descriptor(self) -> dict:
        return {"kind": "rationals"}


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
    if kind == "rationals":
        return RationalField()
    if kind not in ("prime", "quadratic-extension"):
        raise ValueError(f"unknown field kind {kind!r}")
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
    """Inverse of ``Field.descriptor()``."""
    kind = obj["kind"]
    if kind == "rationals":
        return field_create("rationals")
    return field_create(kind, obj["p"], obj.get("nonresidue"))
