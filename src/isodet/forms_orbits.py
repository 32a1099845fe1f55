"""Bilinear forms on F and the orbit stratification of e-by-f matrix
spaces under GL(E) x Sp(F) (alternating form) and GL(E) x SO(F)
(symmetric form).

Conventions, fixed once and used everywhere:

* an element of E (x) F is stored as the e-by-f matrix Phi whose rows are
  indexed by a basis of E, so the image subspace is the row space of Phi;
* the group acts by Phi |-> A Phi B^t with A in GL(E) and B an isometry
  of the form (B^t K B = K);
* the induced Gram matrix of the image is gram_map(Phi) = Phi K Phi^t,
  which is symmetric for symmetric forms and skew with zero diagonal for
  alternating ones, and transforms as A gram_map(Phi) A^t.

A stratum is labelled by the pair (r1, r2) = (rank, rank of gram_map),
subject to 0 <= r2 <= r1 <= e and 2*r1 - r2 <= f, with r2 even for
alternating forms.  For symmetric forms with f even the stratum
(f/2, 0) -- full-Witt totally isotropic image -- splits into two classes
distinguished by a sign: maximal isotropic subspaces fall into two
families according to the parity of their intersection dimension with a
reference member, and special isometries preserve the family while
improper ones swap it.
"""

from __future__ import annotations

import random
from functools import cache
from math import comb
from operator import attrgetter

from .errors import (
    ConsistencyCheckFailed,
    DimensionMismatch,
    InsufficientWittIndex,
    InvalidForm,
    InvalidParams,
    SignUndefinedForForm,
    SymmetryMismatch,
)
from .fields import Field
from .linalg import Matrix, random_invertible

SYMMETRIC = "symmetric"
ALTERNATING = "alternating"


# A reflection is cached per drawn vector only over a finite space of at
# most this many vectors: the cache then holds at most that many entries,
# and a run's thousands of draws repeat vectors.  Over a larger space, or
# Q, draws seldom repeat and a cache would keep every one of them.
REFLECTION_CACHE_VECTORS = 4096


# --------------------------------------------------------------------------
# vectors are tuples of payloads; their arithmetic is the Field row methods

def _unit(field, n, i):
    return tuple(field.one if j == i else field.zero for j in range(n))


class Record:
    """Base of the value types, in the manner of a frozen dataclass: the
    fields are the subclass's ``__slots__``, set in order by the
    constructor and never reassigned; a record equals a record of its own
    class with equal fields, and hashes and prints by its fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields_of = staticmethod(attrgetter(*cls.__slots__))  # a record -> its field values

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return self._fields_of(self) == other._fields_of(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields_of(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


class OrbitParams(Record):
    """Stratum label: rank bound r1, Gram-rank bound r2 and, for the
    two-component symmetric stratum (f/2, 0), a sign."""

    __slots__ = ("r1", "r2", "sign")

    def __init__(self, r1: int, r2: int, sign: str | None = None):
        super().__init__(r1, r2, sign)

    def __str__(self):
        if self.sign is None:
            return f"({self.r1},{self.r2})"
        return f"({self.r1},{self.r2},{self.sign})"

    def to_json(self) -> dict:
        obj = {"r1": self.r1, "r2": self.r2}
        if self.sign is not None:
            obj["sign"] = self.sign
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "OrbitParams":
        return cls(obj["r1"], obj["r2"], obj.get("sign"))


class HyperbolicBasis(Record):
    """Hyperbolic pairs (a_i, b_i) with beta(a_i, b_j) = delta_ij and both
    vectors isotropic, plus a pairwise-orthogonal anisotropic remainder
    (two tuples)."""

    __slots__ = ("pairs", "anisotropic")

    @property
    def witt(self) -> int:
        return len(self.pairs)


class BilinearForm:
    """A non-degenerate symmetric or alternating form given by its Gram
    matrix K, i.e. beta(u, v) = u K v^t on row vectors."""

    def __init__(self, kind: str, gram: Matrix):
        if kind not in (SYMMETRIC, ALTERNATING):
            raise InvalidForm(f"unknown form kind {kind!r}")
        if gram.rows != gram.cols:
            raise InvalidForm("Gram matrix must be square")
        # before the determinant: every odd skew matrix is degenerate
        if kind == ALTERNATING and gram.rows % 2 != 0:
            raise InvalidForm("alternating form needs even dimension")
        if gram.field.is_zero(gram.det()):
            raise InvalidForm("Gram matrix is degenerate")
        if kind == SYMMETRIC and not gram.is_symmetric():
            raise InvalidForm("symmetric form needs a symmetric Gram matrix")
        if kind == ALTERNATING and not gram.is_skew():
            raise InvalidForm("alternating form needs a skew Gram matrix with zero diagonal")
        self.kind = kind
        self.gram = gram
        self._hash = hash((kind, gram))  # taken once: the Gram never changes, and caches hash the form per lookup
        zero = gram.field.zero
        # the non-zero entries of each column of K, as (rows, values)
        self._kcols = [([i for i, k in enumerate(col) if k != zero], [k for k in col if k != zero])
                       for col in zip(*gram.data)]
        # kept on the object, not by functools.cache: it is read once per vector drawn, and a
        # cache keyed by the form would hash its key in Python on each read
        self._reflections: dict = {}  # bounded: vector v -> (v, v K, reflection scalar), see _isometry_rows

    @property
    def f(self) -> int:
        return self.gram.rows

    @property
    def field(self) -> Field:
        return self.gram.field

    @classmethod
    def split(cls, field: Field, kind: str, f: int) -> "BilinearForm":
        """The maximal-Witt-index standard form: antidiagonal ones for
        symmetric (middle 1 when f is odd), block-diagonal [[0,1],[-1,0]]
        for alternating."""
        z, o = field.zero, field.one
        grid = [[z] * f for _ in range(f)]
        if kind == SYMMETRIC:
            for i in range(f):
                grid[i][f - 1 - i] = o
        else:
            for i in range(0, f - 1, 2):
                grid[i][i + 1] = o
                grid[i + 1][i] = field.neg(o)
        return cls(kind, Matrix(field, grid, f, f))

    def is_split_standard(self) -> bool:
        return self.gram == BilinearForm.split(self.field, self.kind, self.f).gram

    def to_json(self) -> dict:
        if self.is_split_standard():
            return {"kind": self.kind, "gram": "split"}
        return {"kind": self.kind, "gram": {"rows": self.gram.to_json()["rows"]}}

    @classmethod
    def from_json(cls, field: Field, obj: dict, f: int | None = None) -> "BilinearForm":
        gram = obj.get("gram", "split")
        if gram in ("split", "identity") and f is None:
            raise InvalidForm(f"{gram} form needs the dimension f")
        if gram == "split":
            return cls.split(field, obj["kind"], f)
        if gram == "identity":
            if obj["kind"] != SYMMETRIC:
                raise InvalidForm("identity Gram matrix is not alternating")
            return cls(obj["kind"], Matrix.identity(field, f))
        if isinstance(gram, str):
            raise InvalidForm(f"unknown gram choice {gram!r}")
        return cls(obj["kind"], Matrix.from_json(gram, field))

    def __eq__(self, other):
        return isinstance(other, BilinearForm) and self.kind == other.kind and self.gram == other.gram

    def __hash__(self):
        return self._hash

    # ------------------------------------------------------------ geometry

    def times_gram(self, v) -> list:
        """The row v K, read off the non-zero entries of K's columns."""
        dot = self.field.dot
        return [dot([v[i] for i in idx], ks) for idx, ks in self._kcols]

    def beta(self, u, v):
        """beta(u, v) = u K v^t for row vectors (tuples of payloads)."""
        return self.field.dot(self.times_gram(u), v)

    @cache  # equal forms share it
    def hyperbolic_basis(self) -> HyperbolicBasis:
        return _split_hyperbolic(self) if self.is_split_standard() else _witt_hyperbolic(self)

    def reference_isotropic(self) -> Matrix:
        """Rows spanning the reference maximal isotropic subspace (the
        a-vectors); only defined when the Witt index is f/2."""
        hb = self.hyperbolic_basis()
        if self.f % 2 != 0 or hb.witt != self.f // 2:
            raise SignUndefinedForForm(
                "form has no maximal isotropic subspace of dimension f/2 over this field"
            )
        return Matrix(self.field, [a for a, _ in hb.pairs], hb.witt, self.f)

    @cache  # equal forms share it
    def lie_basis(self) -> tuple[Matrix, ...]:
        """Basis of the infinitesimal isometries {b : b^t K + K b = 0};
        dimension f(f+1)/2 for alternating forms, f(f-1)/2 for symmetric.
        b = K^-1 S gives b^t K + K b = S -/+ S^t for K = +/-K^t, so the
        algebra is K^-1 Skew (symmetric) or K^-1 Sym (alternating): the
        basis K^-1 (E_ij -/+ E_ji) for i < j, plus K^-1 E_ii when
        alternating."""
        F, f = self.field, self.f
        kinv = self.gram.inverse().data
        sign = F.neg(F.one) if self.kind == SYMMETRIC else F.one
        basis = []
        for i in range(f):
            for j in range(i + (self.kind == SYMMETRIC), f):
                # column j of K^-1 E_ij is column i of K^-1
                rows = [[F.zero] * f for _ in range(f)]
                for r in range(f):
                    rows[r][i] = F.mul(sign, kinv[r][j])
                    rows[r][j] = kinv[r][i]
                basis.append(Matrix(F, rows, f, f))
        return tuple(basis)  # shared by equal forms, so immutable


def _split_hyperbolic(form: BilinearForm) -> HyperbolicBasis:
    F, f = form.field, form.f
    if form.kind == ALTERNATING:
        pairs = tuple((_unit(F, f, 2 * i), _unit(F, f, 2 * i + 1)) for i in range(f // 2))
        return HyperbolicBasis(pairs, ())
    pairs = tuple((_unit(F, f, i), _unit(F, f, f - 1 - i)) for i in range(f // 2))
    anis = (_unit(F, f, f // 2),) if f % 2 else ()
    return HyperbolicBasis(pairs, anis)


def _perp_within(form: BilinearForm, span, plane):
    """Basis of the subspace of the independent ``span`` orthogonal to
    every vector in ``plane`` (computed inside the span's coordinates)."""
    F = form.field
    rows = [[form.beta(p, s) for s in span] for p in plane]
    coeffs = Matrix(F, rows, len(plane), len(span)).kernel_basis()
    return [tuple(F.lincomb(y, span, form.f)) for y in coeffs]


def _diagonalize_restriction(form: BilinearForm, span):
    """Pairwise beta-orthogonal vectors spanning ``span``, each of non-zero
    norm; valid whenever the restriction of the form is non-degenerate
    (char != 2)."""
    F = form.field
    vs = list(span)
    out = []
    while vs:
        n = len(vs)
        k = next((i for i in range(n) if not F.is_zero(form.beta(vs[i], vs[i]))), None)
        if k is None:
            # all basis norms vanish; some cross pairing is non-zero by
            # non-degeneracy, and v_i + v_k then has norm 2*beta != 0
            i, k = next(
                ((i, k) for i in range(n) for k in range(i + 1, n) if not F.is_zero(form.beta(vs[i], vs[k]))),
                (None, None),
            )
            if k is None:
                raise ConsistencyCheckFailed("degenerate restriction in diagonalization")
            v = F.axpy(F.one, vs[i], vs[k])
        else:
            v = vs[k]
        out.append(tuple(v))
        # the projection of v_k is zero (or minus that of v_i); those of the
        # other vectors are a basis of the complement of v
        nv = form.beta(v, v)
        vs = [F.axpy(F.neg(F.div(form.beta(w, v), nv)), v, w) for i, w in enumerate(vs) if i != k]
    return out


def _find_isotropic(form: BilinearForm, diag):
    """Non-zero isotropic vector in the span of a beta-orthogonal family,
    or None.  Complete over finite fields; over the rationals only
    two-term combinations are tried."""
    F = form.field
    norms = [form.beta(v, v) for v in diag]
    n = len(diag)
    for i in range(n):
        for j in range(i + 1, n):
            s = F.sqrt(F.neg(F.div(norms[j], norms[i])))
            if s is not None:
                return tuple(F.axpy(s, diag[i], diag[j]))
    if F.order is None or n < 3:
        return None
    # over F_q, d_0 s^2 and -(d_1 t^2 + d_2) each take (q+1)/2 values, so
    # the two sets meet and the first three vectors always carry a solution
    for t in F.elements():
        s = F.sqrt(F.neg(F.div(F.add(F.mul(norms[1], F.mul(t, t)), norms[2]), norms[0])))
        if s is not None:
            return tuple(F.axpy(s, diag[0], F.axpy(t, diag[1], diag[2])))
    return None


def _witt_hyperbolic(form: BilinearForm) -> HyperbolicBasis:
    """Split off pairs (v, u - beta(u, u)/2 v) with v isotropic (any vector
    of an alternating form) and beta(v, u) = 1, then pass to their
    orthogonal complement, until the span left over is anisotropic."""
    F = form.field
    two = F.add(F.one, F.one)
    span = [_unit(F, form.f, i) for i in range(form.f)]
    pairs = []
    while len(span) >= 2:
        if form.kind == ALTERNATING:
            v = span[0]
        else:
            v = _find_isotropic(form, _diagonalize_restriction(form, span))
            if v is None:
                break
        u = next(w for w in span if not F.is_zero(form.beta(v, w)))
        u = F.scale_row(F.inv(form.beta(v, u)), u)
        u = tuple(F.axpy(F.neg(F.div(form.beta(u, u), two)), v, u))
        pairs.append((v, u))
        span = _perp_within(form, span, (v, u))
    anis = tuple(_diagonalize_restriction(form, span)) if span else ()
    return HyperbolicBasis(tuple(pairs), anis)


class SpaceConfig(Record):
    """The ambient problem: dim E = e >= 1, dim F = f >= 3, a scalar field
    and a non-degenerate form on F."""

    __slots__ = ("e", "f", "field", "form")

    def __init__(self, e: int, f: int, field: Field, form: BilinearForm):
        super().__init__(e, f, field, form)
        if e < 1:
            raise InvalidForm("e must be at least 1")
        if f < 3:
            raise InvalidForm("f must be at least 3")
        if form.f != f:
            raise InvalidForm("form dimension disagrees with f")
        if form.field != field:
            raise InvalidForm("form field disagrees with the configured field")

    @property
    def kind(self) -> str:
        return self.form.kind

    def to_json(self) -> dict:
        return {
            "e": self.e,
            "f": self.f,
            "kind": self.kind,
            "field": self.field.descriptor(),
            "form": self.form.to_json(),
        }


def split_config(e: int, f: int, kind: str, field: Field) -> SpaceConfig:
    """Convenience constructor with the standard split form."""
    return SpaceConfig(e, f, field, BilinearForm.split(field, kind, f))


# --------------------------------------------------------------------------
# the invariant map and classification

def gram_map(phi: Matrix, form: BilinearForm) -> Matrix:
    """Gram matrix Phi K Phi^t of the rows of Phi under the form."""
    if phi.cols != form.f or phi.field != form.field:
        raise DimensionMismatch("matrix does not live in the form's space")
    # entry (i, j) is (row i of Phi) K . (row j of Phi)
    dot, rows = form.field.dot, phi.data
    grid = [[dot(w, v) for v in rows] for w in map(form.times_gram, rows)]
    return Matrix(form.field, grid, phi.rows, phi.rows)


def isotropic_rank(phi: Matrix, form: BilinearForm) -> int:
    return gram_map(phi, form).rank()


def valid_params(config: SpaceConfig) -> list[OrbitParams]:
    """The labels (r1, r2, sign) with 0 <= r2 <= r1 <= e and sign in
    (None, +, -), in that order, that :func:`params_valid` admits."""
    signs = (None, "+", "-")
    labels = (OrbitParams(r1, r2, s) for r1 in range(config.e + 1) for r2 in range(r1 + 1) for s in signs)
    return [p for p in labels if params_valid(p, config)]


def params_valid(params: OrbitParams, config: SpaceConfig) -> bool:
    """The admissibility rule of the module docstring: a sign exactly on
    the two-component stratum."""
    r1, r2 = params.r1, params.r2
    if not (0 <= r2 <= r1 <= config.e) or 2 * r1 - r2 > config.f:
        return False
    if config.kind == ALTERNATING and r2 % 2 != 0:
        return False
    signed = config.kind == SYMMETRIC and config.f % 2 == 0 and (r1, r2) == (config.f // 2, 0)
    if signed:
        return params.sign in ("+", "-")
    return params.sign is None


def require_valid(params: OrbitParams, config: SpaceConfig):
    """The one refusal of a stratum label the configuration does not admit."""
    if not params_valid(params, config):
        raise InvalidParams(f"{params} is not admissible for e={config.e}, f={config.f}, {config.kind}")


def classify(phi: Matrix, config: SpaceConfig) -> OrbitParams:
    """The stratum of phi: (rank, Gram rank) plus, for the two-component
    symmetric stratum, the family sign of the (maximal isotropic) image.

    The sign is + exactly when f/2 - dim(rowspace intersect L0) is even,
    where L0 is the reference maximal isotropic subspace.
    """
    if phi.rows != config.e or phi.cols != config.f or phi.field != config.field:
        raise DimensionMismatch("matrix shape or field disagrees with the configuration")
    r1 = phi.rank()
    r2 = isotropic_rank(phi, config.form)
    sign = None
    if params_valid(OrbitParams(r1, r2, "+"), config):
        half = config.f // 2
        ref = config.form.reference_isotropic()
        inter = r1 + half - phi.vstack(ref).rank()
        sign = "+" if (half - inter) % 2 == 0 else "-"
    return OrbitParams(r1, r2, sign)


def representative(params: OrbitParams, config: SpaceConfig) -> Matrix:
    """Canonical point of the stratum, built from a hyperbolic basis.

    First k = r1 - r2 rows span an isotropic subspace; the next r2 rows
    are pairwise-orthogonal vectors of non-zero norm (symmetric) or
    hyperbolic pairs (alternating); remaining rows are zero.  For the
    signed stratum the minus representative swaps the last a-vector for
    its hyperbolic partner, moving the row space to the other family.
    """
    require_valid(params, config)
    rows = _representative_rows(params, config.form)
    zero_row = (config.field.zero,) * config.f
    return Matrix(config.field, [*rows, *[zero_row] * (config.e - len(rows))], config.e, config.f)


@cache  # the rows do not depend on e
def _representative_rows(params: OrbitParams, form: BilinearForm) -> tuple:
    """The r1 non-zero rows of :func:`representative` for admissible
    ``params`` on ``form``."""
    F = form.field
    hb = form.hyperbolic_basis()
    k = params.r1 - params.r2
    if k > hb.witt:
        raise InsufficientWittIndex(f"need {k} hyperbolic pairs, form has {hb.witt}")
    rows = [hb.pairs[i][0] for i in range(k)]
    if params.sign is not None:
        if params.sign == "-":
            rows[-1] = hb.pairs[k - 1][1]
    elif form.kind == ALTERNATING:
        npairs = params.r2 // 2
        if k + npairs > hb.witt:
            raise InsufficientWittIndex(
                f"need {k + npairs} hyperbolic pairs, form has {hb.witt}"
            )
        for j in range(k, k + npairs):
            rows.append(hb.pairs[j][0])
            rows.append(hb.pairs[j][1])
    else:
        pool = []
        for a, b in hb.pairs[k:]:
            pool += (tuple(F.axpy(F.one, b, a)), tuple(F.axpy(F.neg(F.one), b, a)))
        pool.extend(hb.anisotropic)
        if params.r2 > len(pool):
            raise InsufficientWittIndex(
                f"form supports at most {len(pool)} orthogonal anisotropic rows"
            )
        rows.extend(pool[: params.r2])
    return tuple(rows)


# --------------------------------------------------------------------------
# dimensions and closure order

def codimension(params: OrbitParams, config: SpaceConfig) -> int:
    """(e-r1)(f-r1) + C(r1-r2, 2) for alternating forms and
    (e-r1)(f-r1) + C(r1-r2+1, 2) for symmetric ones."""
    require_valid(params, config)
    base = (config.e - params.r1) * (config.f - params.r1)
    gap = params.r1 - params.r2
    if config.kind == ALTERNATING:
        return base + comb(gap, 2)
    return base + comb(gap + 1, 2)


def dimension(params: OrbitParams, config: SpaceConfig) -> int:
    return config.e * config.f - codimension(params, config)


def closure_leq(p: OrbitParams, q: OrbitParams, config: SpaceConfig) -> bool:
    """Whether the closure of the q-stratum contains the p-stratum:
    componentwise r1/r2 comparison, with equal signs required when both
    labels are the signed stratum."""
    require_valid(p, config)
    require_valid(q, config)
    if p.sign is not None and q.sign is not None and p.sign != q.sign:
        return False
    return p.r1 <= q.r1 and p.r2 <= q.r2


# --------------------------------------------------------------------------
# tabulated classification facts

YES = "yes"
NO = "no"
YES_CHAR0 = "yes-if-char0"
UNKNOWN = "unknown"


class OrbitFacts(Record):
    """Read-only singularity flags for a stratum closure, tabulated from
    the known classification of these varieties.  Flags that the
    classification leaves open are reported as unknown, never guessed.
    ``dim`` and ``codim`` are ints, ``normal`` and
    ``rational_singularities_char0`` bools; ``cohen_macaulay`` is yes, no,
    yes-if-char0 or unknown, ``gorenstein`` yes, no or unknown, and
    ``strongly_f_regular`` yes or unknown."""

    __slots__ = ("dim", "codim", "normal", "cohen_macaulay", "rational_singularities_char0", "gorenstein",
                 "strongly_f_regular")

    def to_json(self) -> dict:
        return dict(zip(self.__slots__, self._fields_of(self)))


def facts(params: OrbitParams, config: SpaceConfig) -> OrbitFacts:
    require_valid(params, config)
    e, f = config.e, config.f
    r1, r2 = params.r1, params.r2
    cd = codimension(params, config)
    alternating = config.kind == ALTERNATING

    if cd == 0:
        # the closure is the whole matrix space, which is smooth
        return OrbitFacts(e * f, 0, True, YES, True, YES, YES)

    normal = alternating or not (0 < r2 < r1 and r2 == 2 * r1 - f)
    sfr = YES if r2 == 0 or (alternating and r1 == e and f >= 2 * e) else UNKNOWN

    # r1 = e (and then necessarily e < f here): the full-rank closures are
    # Cohen-Macaulay in every characteristic; for alternating forms they
    # are Gorenstein, for symmetric ones Gorenstein iff e - r2 is odd or
    # r2 in {0, e}.  The two-component stratum is excluded from the
    # Gorenstein table.
    if r1 == e:
        cm = YES
    elif not normal:
        cm = NO
    else:
        cm = YES if sfr == YES else YES_CHAR0
    gor = UNKNOWN
    if r1 == e and alternating:
        gor = YES
    elif r1 == e and params.sign is None:
        gor = YES if ((e - r2) % 2 == 1 or r2 in (0, e)) else NO

    return OrbitFacts(e * f - cd, cd, normal, cm, normal, gor, sfr)


# --------------------------------------------------------------------------
# constructive congruence solving

def solve_congruence(S: Matrix, A: Matrix, form: BilinearForm) -> Matrix:
    """Solve A K B^t + B K A^t = S for B, where K is the form's Gram
    matrix, A has full row rank, and S matches the form's symmetry
    (skew for alternating, symmetric for symmetric).

    Construction: with Y a left inverse of K A^t,
      alternating: write S = X - X^t with X the strict upper triangle of
                   S, then B = X Y;
      symmetric:   B = (1/2) S Y.
    """
    F = form.field
    if A.cols != form.f or A.field != F or S.field != F:
        raise DimensionMismatch("operands do not live in the form's space")
    if S.rows != S.cols or S.rows != A.rows:
        raise DimensionMismatch("S must be square of size rows(A)")
    if form.kind == ALTERNATING:
        if not S.is_skew():
            raise SymmetryMismatch("alternating congruence needs skew S")
    else:
        if not S.is_symmetric():
            raise SymmetryMismatch("symmetric congruence needs symmetric S")
    Y = (form.gram @ A.T).left_inverse()  # RankDeficient when A drops rank
    if form.kind == ALTERNATING:
        z = F.zero
        X = Matrix(
            F,
            [
                [S.data[i][j] if j > i else z for j in range(S.cols)]
                for i in range(S.rows)
            ],
            S.rows,
            S.cols,
        )
        return X @ Y
    half = F.inv(F.from_int(2))
    return (S @ Y).scale(half)


# --------------------------------------------------------------------------
# tangent spaces and sampling

def tangent_dimension(phi: Matrix, config: SpaceConfig) -> int:
    """Dimension of the orbit through phi: rank of the linearized action
    (a, b) |-> a Phi + Phi b^t over gl(E) + the form's isometry algebra."""
    if phi.rows != config.e or phi.cols != config.f or phi.field != config.field:
        raise DimensionMismatch("matrix shape or field disagrees with the configuration")
    F = config.field
    e, f = config.e, config.f
    zero = F.zero
    rows = []
    for u in range(e):
        for v in range(e):
            # E_uv Phi places row v of Phi into row u
            flat = [zero] * (e * f)
            flat[u * f : (u + 1) * f] = list(phi.data[v])
            rows.append(flat)
    for b in config.form.lie_basis():
        rows.append(list((phi @ b.T).flat()))
    n = len(rows)
    return Matrix(F, rows, n, e * f).rank()


def _isometry_rows(form: BilinearForm, rows, rng=None, *, mirror=None, stats: dict | None = None) -> list:
    """The rows x of ``rows`` mapped to x B^t, for B a
    product of maps x |-> x + c beta(v, x) v: the reflection in v when
    c = -2/beta(v, v) (determinant -1), a symplectic transvection for any
    c when the form is alternating.

    With ``rng``, B is the isometry of :func:`random_isometry`, drawn in
    its order: each vector v's f entries, then, alternating, its scalar c;
    a draw with c = 0 (v isotropic, or c drawn zero) is redrawn, and
    ``stats`` records the vector draws.  Otherwise B is the reflection in
    ``mirror``.  x B^t applies the last map first; w = v K gives both
    beta(v, v) = w.v and beta(v, x) = w.x, and w with the reflection's c
    is computed once per distinct v, and cached on the form when its
    space is small (see REFLECTION_CACHE_VECTORS)."""
    F, f = form.field, form.f
    dot, mul, axpy, zero = F.dot, F.mul, F.axpy, F.zero
    # over a large space the memo is this call's own and is dropped after it
    small = F.order is not None and F.order ** f <= REFLECTION_CACHE_VECTORS
    cache = form._reflections if small else {}

    def reflection(v):  # (v, w, c), with c = 0 when v is isotropic, cached
        w = form.times_gram(v)
        norm = dot(w, v)
        cache[v] = hit = (v, w, zero if norm == zero else F.div(F.from_int(-2), norm))
        return hit

    if rng is None:
        maps = [reflection(mirror)]
    else:
        symmetric = form.kind == SYMMETRIC
        count = f + f % 2 if symmetric else f + 1
        maps, draws, random_row = [], 0, F.random_row
        while len(maps) < count:
            draws += 1
            v = tuple(random_row(rng, f))
            v, w, c = cache.get(v) or reflection(v)
            if not symmetric:
                c = F.random(rng)
            if c != zero:
                maps.append((v, w, c))
        if stats is not None:
            stats["attempts"] = draws
            stats["fallback"] = False
    for v, w, c in reversed(maps):
        rows = [row if (t := mul(c, dot(w, row))) == zero else axpy(t, v, row) for row in rows]
    return rows


def random_isometry(form: BilinearForm, seed=None, *, rng=None, stats: dict | None = None) -> Matrix:
    """Random special isometry B (B^t K B = K, det B = 1), a product of
    2 ceil(f/2) reflections in uniform anisotropic vectors (symmetric) or
    of f + 1 transvections with uniform vectors and non-zero scalars
    (alternating).  These reach all of SO (Cartan-Dieudonne, padded by
    s_v s_v = 1) and of Sp.  The draws, in order: each vector's f entries,
    then, alternating, its scalar; a vector with a zero scalar is
    redrawn.  B is the transpose of the identity rows mapped by
    :func:`_isometry_rows`.  ``stats`` records the number of vector draws
    as ``attempts``; ``fallback`` is always False."""
    if rng is None:
        rng = random.Random(seed)
    rows = _isometry_rows(form, Matrix.identity(form.field, form.f).data, rng, stats=stats)
    return Matrix(form.field, zip(*rows), form.f, form.f)


def hyperbolic_swap(form: BilinearForm) -> Matrix:
    """The improper isometry exchanging the first hyperbolic pair
    (a1 <-> b1) and fixing its orthogonal complement; determinant -1.
    Only symmetric forms admit improper isometries.  It is the reflection
    in v = a1 - b1."""
    if form.kind != SYMMETRIC:
        raise InvalidForm("only symmetric forms have improper isometries")
    F = form.field
    hb = form.hyperbolic_basis()
    if not hb.pairs:
        raise InsufficientWittIndex("form has no hyperbolic pair to swap")
    a1, b1 = hb.pairs[0]
    rows = _isometry_rows(form, Matrix.identity(F, form.f).data, mirror=tuple(F.axpy(F.neg(F.one), b1, a1)))
    return Matrix(F, zip(*rows), form.f, form.f)


def random_orbit_point(params: OrbitParams, config: SpaceConfig, seed=None) -> Matrix:
    """A Phi B^t for the stratum representative Phi, random invertible A
    and a special isometry B from :func:`random_isometry`, which reaches
    the whole group, so over a finite field the points reach the whole
    group orbit of Phi; deterministic per seed.  That orbit need not be the
    whole stratum: a symmetric stratum with r2 >= 1 whose points hold both
    discriminant classes of the form on the row space is two orbits, and
    the points stay in the class of Phi.

    The draw order is the contract: from ``random.Random(seed)``, first
    the e x e entries of A (redrawn while singular), then the draws of
    :func:`random_isometry`.  B is never formed: its maps are applied to
    the r1 non-zero rows of Phi, and A to the result.  The zero stratum
    draws nothing."""
    require_valid(params, config)
    F, e, f = config.field, config.e, config.f
    rep = _representative_rows(params, config.form)
    if not rep:
        return Matrix.zeros(F, e, f)
    rng = random.Random(seed)
    a = random_invertible(F, e, rng).data
    rows = _isometry_rows(config.form, rep, rng)
    # row i of A (Phi B^t), over the r1 non-zero rows
    return Matrix(F, F.matmul(a, rows, f), e, f)
