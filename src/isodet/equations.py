"""Exact polynomials in the e*f matrix coordinates x_ij and the
defining-equation generators of the rank strata:

* minors of the generic matrix for the rank condition,
* minors (symmetric) or principal sub-Pfaffians (alternating) of its
  generic Gram image for the isotropic-rank condition,
* for the two-component stratum of even orthogonal spaces, the quadratic
  invariants together with one eigen-half of the maximal minors under
  the half-form involution of the middle exterior power.

A polynomial maps packed monomials to its non-zero coefficients.  A
packed monomial is one int: the total degree in the top byte, then one
byte per variable with x_0 most significant.  Multiplying two monomials
is then one int addition, and int order is graded-lex order.  Minors and
sub-Pfaffians come from memoised Laplace tables (:class:`MinorTable`),
one per generic grid, so every k-minor of a grid shares its
(k-1)-minors.  ``functools.cache`` keeps each value derived from
immutable inputs alone (a grid's table, the half-form involution, a
stratum's generator set) for the process.  Rendering and export unpack
to dense exponent vectors, so output is bit-for-bit reproducible.

A generator set is built from equation families: each family knows its
tag, degree and closed-form count, lists its members' label tails and
builds one member's polynomial (from the tables, or as a projection of
maximal minors) from its tail.  So counting a set's members and reading
their degree, as the atlas does, makes no member, while the first
iteration makes and expands every member once.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, combinations_with_replacement, product
from math import comb

from .errors import (
    ConsistencyCheckFailed,
    DimensionMismatch,
    EigenvalueNotInField,
    ExceptionalNeedsSign,
    ExponentOutOfRange,
    IndexOutOfRange,
    InvalidParams,
    OddDimension,
    StratumUnavailable,
    WrongKind,
)
from .fields import Field
from .forms_orbits import (
    SYMMETRIC,
    BilinearForm,
    OrbitParams,
    Record,
    SpaceConfig,
    representative,
    require_valid,
    valid_params,
)
from .linalg import Matrix, check_minor_selection

# One byte per exponent.  Every monomial's total degree is capped at the
# largest byte, which bounds each exponent too, so adding two monomials
# whose degrees sum to at most MAX_DEGREE never carries between chunks.
EXP_BITS = 8
MAX_DEGREE = (1 << EXP_BITS) - 1


def _pack(exps, nvars: int) -> int:
    """Packed key of a dense exponent vector."""
    if len(exps) != nvars:
        raise DimensionMismatch("exponent vector length differs from the number of variables")
    try:
        chunks = bytes(exps)
    except ValueError:
        raise ExponentOutOfRange(f"exponents {tuple(exps)} do not each fit one byte") from None
    degree = sum(chunks)
    if degree > MAX_DEGREE:
        raise ExponentOutOfRange(f"monomial degree {degree} exceeds {MAX_DEGREE}")
    return (degree << (EXP_BITS * nvars)) | int.from_bytes(chunks, "big")


def _unpack(key: int, nvars: int) -> tuple:
    """Dense exponent vector of a packed key (its first byte is the degree)."""
    return tuple(key.to_bytes(nvars + 1, "big")[1:])


def _var_key(nvars: int, i: int) -> int:
    """Packed key of the monomial x_i."""
    return (1 << (EXP_BITS * nvars)) | (1 << (EXP_BITS * (nvars - 1 - i)))


def _nonzero(terms: dict, zero) -> dict:
    return {m: c for m, c in terms.items() if c != zero}


def _add_product(field: Field, acc: dict, left: dict, right: dict) -> None:
    """acc += left * right on packed term maps.  Cancelled terms stay in
    acc as zeros for the caller to drop once."""
    add, mul = field.add, field.mul
    get = acc.get
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            m = m1 + m2
            v = mul(c1, c2)
            got = get(m)
            acc[m] = v if got is None else add(got, v)


class Polynomial:
    """Multivariate polynomial with exact coefficients, stored as a map
    from packed monomials (see the module docstring) to non-zero
    coefficient payloads.  Treated as an immutable value: tables share
    term maps between polynomials."""

    __slots__ = ("field", "nvars", "terms", "_compiled")

    def __init__(self, field: Field, nvars: int, terms: dict | None = None):
        """``terms`` maps dense exponent vectors of length ``nvars`` to
        coefficients; zero coefficients are dropped."""
        packed = {}
        if terms:
            zero = field.zero
            for exps, c in terms.items():
                key = _pack(exps, nvars)
                if c != zero:
                    packed[key] = c
        self.field = field
        self.nvars = nvars
        self.terms = packed
        self._compiled = None

    @classmethod
    def _packed(cls, field: Field, nvars: int, terms: dict) -> "Polynomial":
        """Wrap a packed term map that holds no zero coefficients."""
        poly = cls.__new__(cls)
        poly.field = field
        poly.nvars = nvars
        poly.terms = terms
        poly._compiled = None
        return poly

    # ------------------------------------------------------------ builders

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "Polynomial":
        return cls._packed(field, nvars, {})

    @classmethod
    def constant(cls, field: Field, nvars: int, c) -> "Polynomial":
        return cls._packed(field, nvars, {0: c} if c != field.zero else {})

    @classmethod
    def variable(cls, field: Field, nvars: int, i: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise IndexOutOfRange(f"variable {i} out of range for {nvars} variables")
        return cls._packed(field, nvars, {_var_key(nvars, i): field.one})

    # ------------------------------------------------------------ algebra

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars or self.field != other.field:
            raise DimensionMismatch("polynomials live in different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        F = self.field
        add, zero = F.add, F.zero
        out = dict(self.terms)
        for m, c in other.terms.items():
            got = out.get(m)
            if got is None:
                out[m] = c
            else:
                total = add(got, c)
                if total == zero:
                    del out[m]
                else:
                    out[m] = total
        return Polynomial._packed(F, self.nvars, out)

    def __neg__(self) -> "Polynomial":
        neg = self.field.neg
        return Polynomial._packed(self.field, self.nvars, {m: neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if self.terms and other.terms and self.degree() + other.degree() > MAX_DEGREE:
            raise ExponentOutOfRange(f"product degree exceeds {MAX_DEGREE}")
        F = self.field
        out: dict = {}
        _add_product(F, out, self.terms, other.terms)
        return Polynomial._packed(F, self.nvars, _nonzero(out, F.zero))

    def scale(self, c) -> "Polynomial":
        F = self.field
        if c == F.zero:
            return Polynomial.zero(F, self.nvars)
        mul = F.mul
        return Polynomial._packed(F, self.nvars, {m: mul(c, v) for m, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(self.terms) >> (EXP_BITS * self.nvars)

    def is_homogeneous(self) -> bool:
        shift = EXP_BITS * self.nvars
        return len({m >> shift for m in self.terms}) <= 1

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # ------------------------------------------------------------ evaluation

    def sorted_terms(self):
        """(dense exponent vector, coefficient) pairs in graded-lex
        descending order (the canonical order used for rendering, export
        and compilation)."""
        terms, n = self.terms, self.nvars
        return [(_unpack(m, n), terms[m]) for m in sorted(terms, reverse=True)]

    def compiled(self):
        """Flattened monomials: (coefficient, variable indices with
        multiplicity), in canonical order."""
        # kept on the object: a cache keyed by the polynomial would hash all its terms per read
        if self._compiled is None:
            self._compiled = tuple(
                (c, tuple(i for i, k in enumerate(exps) for _ in range(k)))
                for exps, c in self.sorted_terms()
            )
        return self._compiled

    def evaluate(self, values):
        """Exact substitution x_i -> values[i]."""
        if len(values) != self.nvars:
            raise DimensionMismatch("wrong number of values for substitution")
        return self.field.polyval(self.compiled(), values)

    def substitute(self, images) -> "Polynomial":
        """Exact substitution x_i -> images[i]: sum of c * prod images[i]^k_i.
        ``images`` is a list of polynomials of one ring over this field, one
        per variable, or a sparse substitution: a dict {i: image} of
        polynomials in this polynomial's ring, which leaves every variable
        it does not name in place."""
        sparse = isinstance(images, dict)
        if not sparse and len(images) != self.nvars:
            raise DimensionMismatch("wrong number of images for substitution")
        nvars = self.nvars if sparse else images[0].nvars if images else 0
        moved = list(images.items() if sparse else enumerate(images))
        if any(p.field != self.field or p.nvars != nvars for _, p in moved):
            raise DimensionMismatch("images live in different rings")
        F, n = self.field, self.nvars
        moved = [(i, p.terms, max(p.degree(), 0), _var_key(n, i)) for i, p in moved]
        out: dict = {}
        for m, c in self.terms.items():
            # key: the part of m left in place (0 once a list moves every variable)
            key, degree, factors = m, m >> (EXP_BITS * n), []
            for i, terms, d, var in moved:
                k = (m >> (EXP_BITS * (n - 1 - i))) & MAX_DEGREE
                if k:
                    key, degree = key - k * var, degree + k * (d - 1)
                    factors += [terms] * k
            if degree > MAX_DEGREE:
                raise ExponentOutOfRange(f"substituted degree exceeds {MAX_DEGREE}")
            acc = {key: c}
            for factor in factors[:-1]:
                acc, prev = {}, acc
                _add_product(F, acc, prev, factor)
            _add_product(F, out, acc, factors[-1] if factors else {0: F.one})
        return Polynomial._packed(F, nvars, _nonzero(out, F.zero))

    # ------------------------------------------------------------ rendering

    def _var_name(self, i: int, ncols: int) -> str:
        r, c = i // ncols + 1, i % ncols + 1
        if ncols > 9 or self.nvars > 9 * ncols:
            return f"x{r}_{c}"
        return f"x{r}{c}"

    def to_text(self, ncols: int) -> str:
        if not self.terms:
            return "0"
        render = self.field.render
        one = render(self.field.one)
        out = ""
        for exps, c in self.sorted_terms():
            # only a rational renders with a sign; the rest is its magnitude
            mag = render(c)
            negative = mag.startswith("-")
            mag = mag.removeprefix("-")
            factors = []
            for i, k in enumerate(exps):
                if k == 0:
                    continue
                name = self._var_name(i, ncols)
                factors.append(name if k == 1 else f"{name}^{k}")
            mono = "*".join(factors)
            if not mono:
                piece = mag
            elif mag == one:
                piece = mono
            else:
                piece = f"{mag}*{mono}"
            if not out:
                out = ("-" if negative else "") + piece
            else:
                out += (" - " if negative else " + ") + piece
        return out

    def to_json(self) -> dict:
        render = self.field.render
        return {
            "degree": self.degree(),
            "terms": [
                {"exps": list(exps), "coeff": render(c)} for exps, c in self.sorted_terms()
            ],
        }


# --------------------------------------------------------------------------
# generic matrices, their invariants and the memoised minor tables

def generic_matrix(field: Field, e: int, f: int):
    """e-by-f grid of coordinate variables x_ij (index i*f + j)."""
    n = e * f
    return [[Polynomial.variable(field, n, i * f + j) for j in range(f)] for i in range(e)]


class MinorTable:
    """Minors and sub-Pfaffians of one fixed grid of polynomials.

    Both expand along the first remaining row and memoise every
    sub-minor (keyed by its row and column tuples) and every sub-Pfaffian
    (keyed by its index tuple), so all k-minors share their (k-1)-minors.
    Index tuples must be strictly increasing."""

    def __init__(self, grid):
        if not grid or not grid[0]:
            raise DimensionMismatch("empty grid has no well-defined ring")
        self.grid = grid
        self.field = F = grid[0][0].field
        self.nvars = grid[0][0].nvars
        top = max(p.degree() for row in grid for p in row)
        if min(len(grid), len(grid[0])) * top > MAX_DEGREE:
            raise ExponentOutOfRange(f"minors of this grid exceed degree {MAX_DEGREE}")
        neg = F.neg
        self._entries = [[p.terms for p in row] for row in grid]
        self._negated = [[{m: neg(c) for m, c in t.items()} for t in row] for row in self._entries]
        # the Laplace memo is the table's own: keyed by index tuples, it lives as long as the table
        self._minors: dict = {}
        self._pfaffians: dict = {}

    def _expand(self, r0: int, cols, sub) -> Polynomial:
        """Sum over k of (-1)^k * grid[r0][cols[k]] * sub(k)."""
        F = self.field
        acc: dict = {}
        for k, c in enumerate(cols):
            entry = (self._negated if k % 2 else self._entries)[r0][c]
            if entry:
                rest = sub(k)
                if rest:
                    _add_product(F, acc, entry, rest)
        return Polynomial._packed(F, self.nvars, _nonzero(acc, F.zero))

    def minor(self, rows: tuple, cols: tuple) -> Polynomial:
        """Determinant of the grid restricted to ``rows`` x ``cols``."""
        key = (rows, cols)
        poly = self._minors.get(key)
        if poly is None:
            if not rows:
                poly = Polynomial.constant(self.field, self.nvars, self.field.one)
            else:
                rest = rows[1:]
                poly = self._expand(
                    rows[0], cols, lambda k: self.minor(rest, cols[:k] + cols[k + 1 :]).terms
                )
            self._minors[key] = poly
        return poly

    def pfaffian(self, idx: tuple) -> Polynomial:
        """Pfaffian of the principal skew subgrid on ``idx``; the empty
        index set gives 1."""
        poly = self._pfaffians.get(idx)
        if poly is None:
            if not idx:
                poly = Polynomial.constant(self.field, self.nvars, self.field.one)
            else:
                rest = idx[1:]
                poly = self._expand(
                    idx[0], rest, lambda k: self.pfaffian(rest[:k] + rest[k + 1 :]).terms
                )
            self._pfaffians[idx] = poly
        return poly


def poly_det(grid) -> Polynomial:
    """Determinant of a square grid of polynomials."""
    n = len(grid)
    if n == 0:
        raise DimensionMismatch("empty grid has no well-defined ring")
    idx = tuple(range(n))
    return MinorTable(grid).minor(idx, idx)


def poly_pfaffian(grid) -> Polynomial:
    """Pfaffian of a skew grid of polynomials, expanded along the first
    remaining row."""
    n = len(grid)
    if n % 2 != 0:
        raise OddDimension("Pfaffian needs even size")
    if n == 0:
        raise DimensionMismatch("empty grid has no well-defined ring")
    return MinorTable(grid).pfaffian(tuple(range(n)))


def generic_gram_map(config: SpaceConfig):
    """Entries of X K X^t for the generic e-by-f matrix X: an e-by-e grid
    of quadratics, symmetric for symmetric forms and skew with zero
    diagonal for alternating ones."""
    F = config.field
    e, f = config.e, config.f
    n = e * f
    K = config.form.gram.data
    zero = F.zero
    add = F.add
    var = [_var_key(n, i) for i in range(n)]
    grid = []
    for i in range(e):
        row = []
        for j in range(e):
            terms: dict = {}
            for k in range(f):
                for l in range(f):
                    c = K[k][l]
                    if c == zero:
                        continue
                    key = var[i * f + k] + var[j * f + l]
                    got = terms.get(key)
                    terms[key] = c if got is None else add(got, c)
            row.append(Polynomial._packed(F, n, _nonzero(terms, zero)))
        grid.append(row)
    return grid


@cache
def _matrix_table(field: Field, e: int, f: int) -> MinorTable:
    return MinorTable(generic_matrix(field, e, f))


@cache
def _gram_table(config: SpaceConfig) -> MinorTable:
    return MinorTable(generic_gram_map(config))


def minor_polynomial(config: SpaceConfig, rowset, colset) -> Polynomial:
    """The (|rowset| x |colset|) minor of the generic matrix as a
    polynomial; the index sets obey :meth:`Matrix.minor`'s rule."""
    rowset, colset = tuple(rowset), tuple(colset)
    check_minor_selection(rowset, colset, config.e, config.f)
    return _matrix_table(config.field, config.e, config.f).minor(rowset, colset)


# --------------------------------------------------------------------------
# labelled generator sets

class Generator(Record):
    """A labelled polynomial: the label is a tuple whose first item is the
    tag of the generator's family."""

    __slots__ = ("label", "poly")

    def label_text(self) -> str:
        parts = (f"[{','.join(map(str, x))}]" if isinstance(x, tuple) else str(x) for x in self.label[1:])
        return f"{self.label[0]}({','.join(parts)})"


class Family(Record):
    """One equation family of a generator set: its tag, the degree of
    every member, its closed-form count, ``tails()`` listing the label
    tails of its members in set order, and ``build(*tail)`` returning the
    polynomial of the member labelled ``(tag, *tail)``."""

    __slots__ = ("tag", "degree", "count", "tails", "build")


class GeneratorSet:
    """A labelled, reproducible set of polynomials; labels determine each
    polynomial bit-for-bit via :func:`rebuild_generator`.  It is given
    either explicit generators or its families; a set of families counts
    its members in closed form, and makes and expands them on its first
    iteration."""

    def __init__(self, config: SpaceConfig, generators=None, *, families=()):
        self.config = config
        self.families = tuple(families)
        # per-object lazies: the set itself is the memo's key, shared through _generators
        self._generators = None if generators is None else list(generators)
        self._compiled = None  # every generator's compiled terms, built by the first verdict

    @property
    def generators(self) -> list:
        if self._generators is None:
            self._generators = [
                Generator((fam.tag, *tail), fam.build(*tail)) for fam in self.families for tail in fam.tails()
            ]
        return self._generators

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        if self._generators is None:
            return sum(fam.count for fam in self.families)
        return len(self._generators)

    def vanishes_at(self, entries) -> bool:
        """Whether every generator vanishes at the flat entries, through the
        field's ``polyval`` (a loop: all() over a generator makes the
        sampled verdicts 1.5x slower)."""
        if self._compiled is None:
            self._compiled = [g.poly.compiled() for g in self.generators]
        F = self.config.field
        polyval, zero = F.polyval, F.zero
        for terms in self._compiled:
            if polyval(terms, entries) != zero:
                return False
        return True

    def all_vanish(self, phi: Matrix) -> bool:
        if phi.rows != self.config.e or phi.cols != self.config.f:
            raise DimensionMismatch("matrix shape disagrees with the generator ring")
        if phi.field != self.config.field:
            raise DimensionMismatch("matrix field disagrees with the generator ring")
        return self.vanishes_at(phi.flat())

    def to_json(self) -> list:
        return [{"label": g.label_text(), **g.poly.to_json()} for g in self.generators]

    def to_text(self) -> str:
        f = self.config.f
        lines = [f"{g.label_text()}: {g.poly.to_text(f)}" for g in self.generators]
        return "\n".join(lines)


# --------------------------------------------------------------------------
# rank-condition generators

def rank_condition_generators(params: OrbitParams, config: SpaceConfig) -> GeneratorSet:
    """All (r1+1)-minors of the generic matrix plus the isotropic-rank
    conditions on its Gram image: (r2+1)-minors for symmetric forms (one
    of each transpose-pair), principal (r2+2)-sub-Pfaffians for
    alternating ones.  The Gram image X K X^t has rank at most min(e, f),
    so each family is empty once its size outgrows min(e, f), and dense
    strata get the empty set.  Within that bound no member is identically
    zero, so each has the degree of its family: r1+1, 2(r2+1) and r2+2.
    The members' polynomials come from the memoised tables."""
    require_valid(params, config)
    if params.sign is not None:
        raise ExceptionalNeedsSign(
            "the two-component stratum needs component_generators(sign, config)"
        )
    F, e, f = config.field, config.e, config.f
    bound = min(e, f)
    families = []
    n1 = params.r1 + 1
    if n1 <= bound:
        families.append(Family(
            "minor", n1, comb(e, n1) * comb(f, n1),
            lambda: product(combinations(range(e), n1), combinations(range(f), n1)), _matrix_table(F, e, f).minor))
    G = _gram_table(config)
    if config.kind == SYMMETRIC:
        n2 = params.r2 + 1
        if n2 <= bound:
            # minor(T,S) = minor(S,T) on a symmetric grid: only T <= S
            k = comb(e, n2)
            families.append(Family(
                "gram-minor", 2 * n2, k * (k + 1) // 2,
                lambda: combinations_with_replacement(combinations(range(e), n2), 2), G.minor))
    else:
        n2 = params.r2 + 2
        if n2 <= bound:
            families.append(Family(
                "gram-pfaffian", n2, comb(e, n2), lambda: ((S,) for S in combinations(range(e), n2)), G.pfaffian))
    return GeneratorSet(config, families=families)


def generators_for(params: OrbitParams, config: SpaceConfig) -> GeneratorSet:
    """The defining generators of a stratum closure: component generators
    for a signed stratum, rank-condition generators otherwise; one set per
    stratum and configuration for the process."""
    require_valid(params, config)
    return _generators(params, config)


@cache
def _generators(params: OrbitParams, config: SpaceConfig) -> GeneratorSet:
    if params.sign is not None:
        return component_generators(params.sign, config)
    return rank_condition_generators(params, config)


# --------------------------------------------------------------------------
# the half-form involution and component generators

class StarOperator(Record):
    """The involution (up to scalar) on the middle exterior power of F
    induced by the form: on the basis {e_S} of f/2-subsets it satisfies
    star^2 = (-1)^{f/2} / det(K) * identity = mu^2 * identity, and its two
    eigenspaces are the halves that split the maximal minors.  The fields
    are the field, f, the subsets, the columns and the scalar payload mu.
    Column k holds the non-zero entries of star(e_S) for S = subsets[k], as
    (row index, value) pairs with the rows ascending: one entry for the
    split form and every diagonal Gram, up to all of them otherwise."""

    __slots__ = ("field", "f", "subsets", "columns", "mu")

    def image(self, vec) -> dict:
        """star applied to the sparse vector ``vec`` of (index, value)
        pairs, as {index: value}; cancelled entries stay as zeros."""
        F = self.field
        mul, add = F.mul, F.add
        out: dict = {}
        for k, a in vec:
            for u, s in self.columns[k]:
                t = mul(s, a)
                got = out.get(u)
                out[u] = t if got is None else add(got, t)
        return out

    def projector(self, eigenvalue) -> list:
        """The non-zero rows of (identity + eigenvalue^{-1} * star) / 2,
        which projects onto the eigenvalue's eigenspace, as pairs
        (u, [(k, entry), ...]) with k ascending."""
        F = self.field
        zero, add, mul = F.zero, F.add, F.mul
        half, inv = F.inv(F.from_int(2)), F.inv(eigenvalue)
        rows = [{u: F.one} for u in range(len(self.subsets))]
        for k, col in enumerate(self.columns):
            for u, s in col:
                t = mul(inv, s)
                row = rows[u]
                row[k] = add(row[k], t) if k in row else t
        out = []
        for u, row in enumerate(rows):
            entries = [(k, mul(half, c)) for k, c in sorted(row.items()) if c != zero]
            if entries:
                out.append((u, entries))
        return out


def _shuffle_sign(field: Field, subset, f: int):
    """Sign of the permutation (subset, complement), both ascending."""
    comp = [i for i in range(f) if i not in subset]
    seq = list(subset) + comp
    inversions = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return field.one if inversions % 2 == 0 else field.neg(field.one), tuple(comp)


@cache
def star_operator(form: BilinearForm) -> StarOperator:
    """The half-form involution of an even-dimensional symmetric form,
    built once per form.  Needs mu = sqrt((-1)^{f/2} / det K) in the
    field; otherwise raises with the remedy of passing a
    quadratic-extension field."""
    if form.kind != SYMMETRIC:
        raise WrongKind("the half-form involution needs a symmetric form")
    f = form.f
    if f % 2 != 0:
        raise OddDimension("the half-form involution needs f even")
    F = form.field
    m = f // 2
    inv_det = F.inv(form.gram.det())
    mu_sq = inv_det if m % 2 == 0 else F.neg(inv_det)
    mu = F.sqrt(mu_sq)
    if mu is None:
        raise EigenvalueNotInField(
            "the involution eigenvalue is not in this field; "
            "retry with a quadratic-extension field descriptor"
        )
    subsets = tuple(combinations(range(f), m))
    # star = Lambda^m(K)^{-1} P for the wedge pairing P[S^c][S] = sgn(S, S^c),
    # and Lambda^m(K)^{-1} = Lambda^m(K^{-1}) by Cauchy-Binet: its column V
    # is the wedge of the columns of K^{-1} indexed by V, as {row set U: det}
    kinv = form.gram.inverse().data
    columns = [[(i, row[j]) for i, row in enumerate(kinv) if row[j] != F.zero] for j in range(f)]

    @cache
    def wedge(cols):  # column prefix -> its wedge, shared
        if not cols:
            return {(): F.one}
        w: dict = {}
        for U, c in wedge(cols[:-1]).items():
            for i, a in columns[cols[-1]]:
                if i not in U:  # e_U ^ e_i = (-1)^#{u in U : u > i} e_(U + i)
                    t = F.mul(c, a) if sum(u > i for u in U) % 2 == 0 else F.neg(F.mul(c, a))
                    V = tuple(sorted((*U, i)))
                    w[V] = F.add(w[V], t) if V in w else t
        return w

    at = {S: k for k, S in enumerate(subsets)}
    star_columns = []
    for S in subsets:
        sgn, comp = _shuffle_sign(F, S, f)
        star_columns.append(tuple(sorted((at[U], F.mul(sgn, c)) for U, c in wedge(comp).items() if c != F.zero)))
    star = StarOperator(F, f, subsets, tuple(star_columns), mu)
    # star^2 = mu^2 * identity, one column at a time
    for k, col in enumerate(star.columns):
        if _nonzero(star.image(col), F.zero) != {k: mu_sq}:
            raise ConsistencyCheckFailed("the half-form involution does not square to mu^2")
    return star


@cache
def _reference_eigenvalue(star: StarOperator, config: SpaceConfig):
    """Involution eigenvalue of the decomposable vector spanned by the
    plus representative's row space; pins which eigenspace belongs to
    which component."""
    F = config.field
    m = star.f // 2
    rep = representative(OrbitParams(m, 0, "+"), config)
    T0 = tuple(range(m))
    v0 = [(k, x) for k, S in enumerate(star.subsets) if (x := rep.minor(T0, S)) != F.zero]
    image = star.image(v0)
    i0, x0 = v0[0]
    lam = F.div(image.get(i0, F.zero), x0)
    if lam not in (star.mu, F.neg(star.mu)):
        raise ConsistencyCheckFailed("the reference ratio is not an involution eigenvalue")
    if _nonzero(image, F.zero) != {k: F.mul(lam, x) for k, x in v0}:
        raise ConsistencyCheckFailed("the reference maximal minors are not an eigenvector")
    return lam


def component_generators(sign: str, config: SpaceConfig) -> GeneratorSet:
    """Generators of one component of the (f/2, 0) stratum of an even
    orthogonal space: the quadratic invariants W (entries of the generic
    Gram image) together with the projection of every maximal-minor
    vector onto the eigenspace opposite to the component's own family.

    The labelling is pinned so that component_generators('+') vanishes on
    representative((f/2, 0, '+'))."""
    e, f = config.e, config.f
    m = f // 2
    require_valid(OrbitParams(m, 0, sign), config)
    F = config.field
    star = star_operator(config.form)
    lam = _reference_eigenvalue(star, config)
    # vanishing on the sign component means projecting onto the OTHER family
    rows = dict(star.projector(F.neg(lam) if sign == "+" else lam))
    G = _gram_table(config).grid
    X = _matrix_table(F, e, f)
    zero = F.zero
    nvars = e * f

    def projection(_sign, T, u):
        """Projector row ``u`` applied to the maximal minors on rows T."""
        acc: dict = {}
        for k, c in rows[u]:
            _add_product(F, acc, {0: c}, X.minor(T, star.subsets[k]).terms)
        return Polynomial._packed(F, nvars, _nonzero(acc, zero))

    # the maximal minors on rows T are linearly independent (each alone
    # holds its diagonal monomial), so a projected row is non-zero exactly
    # when its projector row is: the projector keeps only those
    return GeneratorSet(config, families=[
        Family("quadratic-invariant", 2, e * (e + 1) // 2,
               lambda: combinations_with_replacement(range(e), 2), lambda i, j: G[i][j]),
        Family("component", m, comb(e, m) * len(rows),
               lambda: ((sign, T, u) for T in combinations(range(e), m) for u in rows), projection),
    ])


# --------------------------------------------------------------------------
# label-driven regeneration (reproducibility contract)

def rebuild_generator(label: tuple, config: SpaceConfig) -> Generator:
    """The generator carrying ``label`` in some stratum's set from
    :func:`generators_for`, rebuilt bit-for-bit: the first family with the
    label's tag that lists its tail builds it, and no other member is made.
    A label no set carries raises InvalidParams, or the first
    StratumUnavailable of a stratum whose set the config cannot build."""
    skipped = None
    tail = label[1:]
    for params in valid_params(config):
        try:
            gens = generators_for(params, config)
        except StratumUnavailable as exc:
            skipped = skipped or exc
            continue
        for fam in gens.families:
            if label[:1] == (fam.tag,) and tail in fam.tails():
                return Generator(label, fam.build(*tail))
    raise skipped or InvalidParams(f"no generator set carries the label {label!r}")
