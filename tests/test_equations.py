import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from isodet import equations
from isodet.errors import (
    ConsistencyCheckFailed,
    DimensionMismatch,
    EigenvalueNotInField,
    ExceptionalNeedsSign,
    ExponentOutOfRange,
    IndexOutOfRange,
    InsufficientWittIndex,
    InvalidParams,
    OddDimension,
    SizeMismatch,
    StratumUnavailable,
    WrongKind,
)
from isodet.fields import Field, field_create
from isodet.forms_orbits import (
    BilinearForm,
    OrbitParams,
    SpaceConfig,
    classify,
    closure_leq,
    gram_map,
    random_orbit_point,
    representative,
    split_config,
    valid_params,
)
from isodet.equations import (
    Polynomial,
    StarOperator,
    component_generators,
    generators_for,
    generic_gram_map,
    generic_matrix,
    minor_polynomial,
    poly_det,
    poly_pfaffian,
    rank_condition_generators,
    rebuild_generator,
    star_operator,
)
from isodet.linalg import Matrix, random_matrix

F5 = field_create("prime", 5)
F7 = field_create("prime", 7)
Q = field_create("rationals")


# ---------------------------------------------------------------- polynomials

def test_polynomial_arithmetic_and_render():
    x = [Polynomial.variable(Q, 4, i) for i in range(4)]
    p = x[0] * x[3] - x[1] * x[2]
    assert p.to_text(2) == "x12*x21 - x11*x22" or p.to_text(2) == "x11*x22 - x12*x21"
    assert p.degree() == 2 and p.is_homogeneous()
    assert (p - p).is_zero()
    vals = [Q.from_int(v) for v in (1, 2, 3, 4)]
    assert p.evaluate(vals) == Q.from_int(1 * 4 - 2 * 3)


def test_polynomial_render_examples():
    cfg = SpaceConfig(1, 3, F5, BilinearForm("symmetric", Matrix.identity(F5, 3)))
    G = generic_gram_map(cfg)
    assert G[0][0].to_text(3) == "x11^2 + x12^2 + x13^2"


def test_generic_gram_map_alternating_diagonal_zero():
    cfg = split_config(3, 4, "alternating", F5)
    G = generic_gram_map(cfg)
    for i in range(3):
        assert G[i][i].is_zero()
    for i in range(3):
        for j in range(3):
            assert G[i][j] == -G[j][i]


def test_generic_gram_map_evaluation_oracle():
    rng = random.Random(11)
    for kind in ("symmetric", "alternating"):
        cfg = split_config(2, 4, kind, F7)
        G = generic_gram_map(cfg)
        for _ in range(200):
            phi = random_matrix(F7, 2, 4, rng)
            expected = gram_map(phi, cfg.form)
            vals = phi.flat()
            for i in range(2):
                for j in range(2):
                    assert G[i][j].evaluate(vals) == expected[i, j]


def test_minor_polynomial_cross_module_agreement():
    rng = random.Random(13)
    cfg = split_config(3, 5, "symmetric", F7)
    for _ in range(200):
        phi = random_matrix(F7, 3, 5, rng)
        T, S = (0, 2), (1, 4)
        assert minor_polynomial(cfg, T, S).evaluate(phi.flat()) == phi.minor(T, S)
    assert minor_polynomial(cfg, (0, 1), (0, 1)).evaluate(phi.flat()) == phi.minor((0, 1), (0, 1))


def _random_dense_terms(rng, nvars, field):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, 5)):
            exps[rng.randrange(nvars)] += rng.choice((1, 1, 2, 7))
        terms[tuple(exps)] = field.from_int(rng.randint(-3, 3))
    return terms


def test_packed_monomials_round_trip():
    rng = random.Random(5)
    for nvars in (1, 3, 12, 40):
        for _ in range(60):
            dense = _random_dense_terms(rng, nvars, Q)
            poly = Polynomial(Q, nvars, dense)
            nonzero = {k: v for k, v in dense.items() if v != Q.zero}
            by_grlex = sorted(nonzero.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
            assert poly.sorted_terms() == by_grlex
            assert poly.degree() == max((sum(k) for k in nonzero), default=-1)
            assert poly.is_homogeneous() == (len({sum(k) for k in nonzero}) <= 1)
            assert poly.to_json()["terms"] == [
                {"exps": list(k), "coeff": Q.render(c)} for k, c in by_grlex
            ]
            # products add exponent vectors; no chunk carries into the next
            other = _random_dense_terms(rng, nvars, Q)
            product: dict = {}
            for k1, c1 in nonzero.items():
                for k2, c2 in other.items():
                    k = tuple(a + b for a, b in zip(k1, k2))
                    product[k] = product.get(k, Q.zero) + c1 * c2
            assert poly * Polynomial(Q, nvars, other) == Polynomial(Q, nvars, product)


def test_oversize_exponent_raises():
    assert Polynomial(Q, 2, {(255, 0): Q.one}).degree() == 255
    for exps in ((256, 0), (200, 100), (-1, 0)):
        with pytest.raises(ExponentOutOfRange):
            Polynomial(Q, 2, {exps: Q.one})
    x = Polynomial(Q, 1, {(200,): Q.one})
    with pytest.raises(ExponentOutOfRange):
        x * x


def _random_images(rng, nvars, ring_vars, field):
    """``nvars`` random polynomials of degree at most 2 in ``ring_vars`` variables."""
    images = []
    for _ in range(nvars):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            exps = [0] * ring_vars
            for _ in range(rng.randint(0, 2)):
                exps[rng.randrange(ring_vars)] += 1
            terms[tuple(exps)] = field.from_int(rng.randint(-3, 3))
        images.append(Polynomial(field, ring_vars, terms))
    return images


@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "F7"])
def test_substitute_matches_polynomial_arithmetic(field):
    # sum of c * prod images[i]^k_i, built with + and *, into a ring of
    # another size; the variables themselves substitute to the polynomial
    rng = random.Random(21)
    for nvars, ring_vars in ((1, 1), (3, 2), (4, 6)):
        for _ in range(40):
            poly = Polynomial(field, nvars, _random_dense_terms(rng, nvars, field))
            images = _random_images(rng, nvars, ring_vars, field)
            expected = Polynomial.zero(field, ring_vars)
            for exps, c in poly.sorted_terms():
                term = Polynomial.constant(field, ring_vars, c)
                for i, k in enumerate(exps):
                    for _ in range(k):
                        term = term * images[i]
                expected = expected + term
            assert poly.substitute(images) == expected
            assert poly.substitute([Polynomial.variable(field, nvars, i) for i in range(nvars)]) == poly


@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "F7"])
def test_sparse_substitute_leaves_the_other_variables_in_place(field):
    # {i: image} equals the full list with x_j -> x_j for every j not named
    rng = random.Random(23)
    for nvars in (1, 3, 4):
        for _ in range(40):
            poly = Polynomial(field, nvars, _random_dense_terms(rng, nvars, field))
            images = _random_images(rng, nvars, nvars, field)
            named = rng.sample(range(nvars), rng.randint(0, nvars))
            full = [images[i] if i in named else Polynomial.variable(field, nvars, i) for i in range(nvars)]
            assert poly.substitute({i: images[i] for i in named}) == poly.substitute(full)


def test_substitute_refusals():
    x = Polynomial.variable(Q, 2, 0)
    with pytest.raises(DimensionMismatch):
        x.substitute([x])
    with pytest.raises(DimensionMismatch):
        x.substitute([x, Polynomial.variable(Q, 3, 0)])
    with pytest.raises(DimensionMismatch):
        x.substitute([Polynomial.variable(F7, 2, 0)] * 2)
    high = Polynomial(Q, 1, {(200,): Q.one})
    with pytest.raises(ExponentOutOfRange):
        Polynomial(Q, 1, {(2,): Q.one}).substitute([high])
    # sparse: the degree counts the variables left in place, 2 * 127 + 1 fits and 2 * 128 + 1 does not
    assert Polynomial(Q, 2, {(2, 1): Q.one}).substitute({0: Polynomial(Q, 2, {(127, 0): Q.one})}).degree() == 255
    with pytest.raises(ExponentOutOfRange):
        Polynomial(Q, 2, {(2, 1): Q.one}).substitute({0: Polynomial(Q, 2, {(128, 0): Q.one})})
    with pytest.raises(DimensionMismatch):
        x.substitute({0: Polynomial.variable(Q, 3, 0)})
    assert Polynomial.constant(Q, 0, Q.one).substitute([]) == Polynomial.constant(Q, 0, Q.one)


# ---------------------------------------------------------------- sympy oracle

def _sympy_terms(sympy, expr, symbols, field):
    """Coefficient map of an integer-coefficient sympy expression, expanded
    and reduced into ``field``."""
    out = {}
    for monom, coeff in sympy.Poly(sympy.expand(expr), *symbols).terms():
        num, den = int(coeff.p), int(coeff.q)
        if field.kind == "rationals":
            value = Fraction(num, den)
        else:
            value = num * pow(den, -1, field.p) % field.p
        if value != field.zero:
            out[monom] = value
    return out


def _sympy_generic(sympy, cfg):
    """Symbols of the generic matrix X (row-major) and its Gram image
    X K X^t, with K the split form's integer Gram matrix."""
    e, f = cfg.e, cfg.f
    symbols = sympy.symbols(f"x0:{e * f}")
    X = sympy.Matrix(e, f, symbols)
    K = sympy.Matrix(split_config(e, f, cfg.kind, Q).form.gram.data)
    return symbols, X, X * K * X.T


@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "F7"])
@pytest.mark.parametrize("e,f", [(3, 4), (4, 5)])
def test_minors_match_sympy(field, e, f):
    sympy = pytest.importorskip("sympy")
    cfg = split_config(e, f, "symmetric", field)
    symbols, X, _ = _sympy_generic(sympy, cfg)
    rows = tuple(range(e))
    for S in combinations(range(f), e):
        expected = _sympy_terms(sympy, X[list(rows), list(S)].det(), symbols, field)
        assert dict(minor_polynomial(cfg, rows, S).sorted_terms()) == expected


@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "F7"])
def test_gram_minors_match_sympy(field):
    sympy = pytest.importorskip("sympy")
    cfg = split_config(3, 6, "symmetric", field)
    symbols, _, G = _sympy_generic(sympy, cfg)
    gens = rank_condition_generators(OrbitParams(3, 2), cfg)
    assert [g.label for g in gens] == [("gram-minor", (0, 1, 2), (0, 1, 2))]
    expected = _sympy_terms(sympy, G.det(method="berkowitz"), symbols, field)
    assert dict(gens.generators[0].poly.sorted_terms()) == expected
    assert poly_det(generic_gram_map(cfg)) == gens.generators[0].poly


@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "F7"])
def test_gram_pfaffian_matches_sympy(field):
    sympy = pytest.importorskip("sympy")
    cfg = split_config(4, 4, "alternating", field)
    symbols, _, G = _sympy_generic(sympy, cfg)
    pf = G[0, 1] * G[2, 3] - G[0, 2] * G[1, 3] + G[0, 3] * G[1, 2]
    assert sympy.expand(pf**2 - G.det(method="berkowitz")) == 0
    gens = rank_condition_generators(OrbitParams(3, 2), cfg)
    (pfaffian,) = [g for g in gens if g.label[0] == "gram-pfaffian"]
    assert pfaffian.label == ("gram-pfaffian", (0, 1, 2, 3))
    assert dict(pfaffian.poly.sorted_terms()) == _sympy_terms(sympy, pf, symbols, field)
    assert poly_pfaffian(generic_gram_map(cfg)) == pfaffian.poly


def test_substitute_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(22)
    xs, ys = sympy.symbols("x0:3"), sympy.symbols("y0:2")

    def expr(poly, symbols):
        return sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * sympy.prod(s**k for s, k in zip(symbols, exps))
                           for exps, c in poly.sorted_terms()))

    for _ in range(30):
        poly = Polynomial(Q, 3, _random_dense_terms(rng, 3, Q))
        images = _random_images(rng, 3, 2, Q)
        expected = sympy.expand(expr(poly, xs).subs(dict(zip(xs, [expr(p, ys) for p in images])), simultaneous=True))
        assert sympy.expand(expr(poly.substitute(images), ys) - expected) == 0


# ---------------------------------------------------------------- rank-condition generators

def test_generators_dense_class_empty():
    cfg = split_config(2, 4, "alternating", F5)
    assert len(rank_condition_generators(OrbitParams(2, 2), cfg)) == 0


def test_generators_alternating_nullcone():
    cfg = split_config(2, 4, "alternating", F5)
    gens = rank_condition_generators(OrbitParams(2, 0), cfg)
    assert len(gens) == 1
    g = gens.generators[0]
    assert g.label == ("gram-pfaffian", (0, 1))
    assert g.poly.degree() == 2
    # the Pfaffian of the full 2x2 skew Gram grid is its upper entry
    G = generic_gram_map(cfg)
    assert g.poly == G[0][1]


def test_generators_symmetric_counts():
    cfg = split_config(2, 3, "symmetric", F5)
    gens = rank_condition_generators(OrbitParams(1, 0), cfg)
    tags = [g.label[0] for g in gens]
    assert tags.count("minor") == 3
    assert tags.count("gram-minor") == 3


def test_generators_exceptional_needs_sign():
    cfg = split_config(2, 4, "symmetric", F5)
    with pytest.raises(ExceptionalNeedsSign):
        rank_condition_generators(OrbitParams(2, 0, "+"), cfg)
    with pytest.raises(InvalidParams):
        rank_condition_generators(OrbitParams(3, 0), cfg)


def test_generator_degrees_homogeneous():
    for kind in ("symmetric", "alternating"):
        cfg = split_config(3, 4, kind, F5)
        for p in valid_params(cfg):
            if p.sign is not None:
                continue
            for g in rank_condition_generators(p, cfg):
                assert g.poly.is_homogeneous()
                tag = g.label[0]
                if tag == "minor":
                    assert g.poly.degree() == p.r1 + 1
                elif tag == "gram-minor":
                    assert g.poly.degree() == 2 * (p.r2 + 1)
                elif tag == "gram-pfaffian":
                    assert g.poly.degree() == p.r2 + 2


def _diag_1112(field):
    # Witt index 1 over F_3, where 1/det K = 2 is not a square; split over F_9
    gram = Matrix.from_ints(field, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    return SpaceConfig(2, 4, field, BilinearForm("symmetric", gram))


F3 = field_create("prime", 3)
F9 = field_create("quadratic-extension", 3)
LABEL_CONFIGS = {
    "sym-split-F5": split_config(2, 4, "symmetric", F5),
    "alt-split-F5": split_config(3, 4, "alternating", F5),
    "sym-identity-F5": SpaceConfig(2, 4, F5, BilinearForm("symmetric", Matrix.identity(F5, 4))),
    "sym-diag1112-F3": _diag_1112(F3),
    "sym-diag1112-F9": _diag_1112(F9),
    # over Q the eigenvalue 1 exists, but the form has no hyperbolic pair
    "sym-identity-Q": SpaceConfig(3, 4, Q, BilinearForm("symmetric", Matrix.identity(Q, 4))),
}
NO_SIGNED_SETS = {"sym-diag1112-F3": EigenvalueNotInField, "sym-identity-Q": InsufficientWittIndex}


def test_label_determinism():
    # every label of every stratum's generator set rebuilds its generator;
    # the forms of NO_SIGNED_SETS have no signed generator sets
    for name, cfg in LABEL_CONFIGS.items():
        built = 0
        for p in valid_params(cfg):
            try:
                gens = (
                    component_generators(p.sign, cfg)
                    if p.sign is not None
                    else rank_condition_generators(p, cfg)
                )
            except (EigenvalueNotInField, InsufficientWittIndex) as exc:
                assert isinstance(exc, NO_SIGNED_SETS[name]) and p.sign is not None
                continue
            built += 1
            for g in gens:
                rebuilt = rebuild_generator(g.label, cfg)
                assert rebuilt.poly == g.poly
                assert rebuilt.label == g.label
        assert built == len(valid_params(cfg)) - 2 * (name in NO_SIGNED_SETS), name


@pytest.mark.parametrize("name", sorted(NO_SIGNED_SETS))
def test_label_of_an_unbuildable_set_keeps_its_reason(name):
    # a component label is valid, but this config cannot build its set
    with pytest.raises(NO_SIGNED_SETS[name]):
        rebuild_generator(("component", "+", (0, 1), 0), LABEL_CONFIGS[name])


@pytest.mark.parametrize(
    "label",
    [
        ("minor", (0, 1, 2), (0, 1, 2)),  # more rows than the matrix has
        ("minor", (0,), (4,)),
        ("quadratic-invariant", 5, 0),
        ("quadratic-invariant", 1, 0),  # only i <= j is a generator
        ("gram-pfaffian", (0, 1)),  # a symmetric form has no Pfaffians
        ("gram-minor", (1,), (0,)),  # S < T is the transpose of a generator
        ("minor", (1, 0), (0, 1)),  # decreasing index tuples
        ("gram-minor", (1, 0), (0, 1)),
        ("component", "+", (0, 1), 99),
        ("component", "?", (0, 1), 0),
        ("bogus",),
    ],
)
def test_labels_no_set_carries_are_invalid(label):
    with pytest.raises(InvalidParams):
        rebuild_generator(label, split_config(2, 4, "symmetric", F5))


@pytest.mark.parametrize(
    "rows,cols,error",
    [
        ((0, 2), (0, 1), IndexOutOfRange),  # row 2 of a 2-row matrix
        ((0, 1), (0, 4), IndexOutOfRange),
        ((-1, 0), (0, 1), IndexOutOfRange),
        ((1, 0), (0, 1), IndexOutOfRange),  # decreasing
        ((0, 0), (0, 1), IndexOutOfRange),  # repeated
        ((0,), (0, 1), SizeMismatch),
    ],
)
def test_minor_polynomial_checks_index_sets_like_matrix_minor(rows, cols, error):
    cfg = split_config(2, 4, "symmetric", F5)
    with pytest.raises(error):
        minor_polynomial(cfg, rows, cols)
    with pytest.raises(error):
        Matrix.zeros(F5, 2, 4).minor(rows, cols)


# ---------------------------------------------------------------- generator families

def _family_sizes(params, cfg, gram):
    """Per-tag sizes of a stratum's generator set, in closed form.  They
    equal the non-zero members of the eagerly expanded sets on the grid of
    test_generators_expand_to_their_degree.  In the split basis the
    involution fixes the line of each of the 2^m subsets that meets every
    hyperbolic pair once, half of them in each eigenspace, so 2^(m-1)
    projector rows are zero; the identity form has none."""
    e, f = cfg.e, cfg.f
    if params.sign is not None:
        m = f // 2
        rows = comb(f, m) - (2 ** (m - 1) if gram == "split" else 0)
        return {"quadratic-invariant": e * (e + 1) // 2, "component": comb(e, m) * rows}
    sizes, bound = {}, min(e, f)
    if params.r1 + 1 <= bound:
        sizes["minor"] = comb(e, params.r1 + 1) * comb(f, params.r1 + 1)
    if cfg.kind == "symmetric" and params.r2 + 1 <= bound:
        n = comb(e, params.r2 + 1)
        sizes["gram-minor"] = n * (n + 1) // 2
    if cfg.kind == "alternating" and params.r2 + 2 <= bound:
        sizes["gram-pfaffian"] = comb(e, params.r2 + 2)
    return sizes


def test_generators_expand_to_their_degree(monkeypatch, fresh_caches):
    # every member of every set, forced: non-zero, homogeneous and of the
    # degree it was built with; the family sizes follow the closed form
    fresh_caches(equations, "_matrix_table", "_gram_table", "_generators")
    sets = 0
    for kind in ("symmetric", "alternating"):
        for e in range(1, 5):
            for f in range(3 if kind == "symmetric" else 4, 7, 1 if kind == "symmetric" else 2):
                for field in (F3, F7, F9, Q):
                    for gram in ("split", "identity") if kind == "symmetric" else ("split",):
                        form = BilinearForm.from_json(field, {"kind": kind, "gram": gram}, f)
                        cfg = SpaceConfig(e, f, field, form)
                        for p in valid_params(cfg):
                            try:
                                gens = generators_for(p, cfg)
                            except StratumUnavailable:
                                continue
                            sizes: dict = {}
                            degrees = {fam.tag: fam.degree for fam in gens.families}
                            for g in gens:
                                sizes[g.label[0]] = sizes.get(g.label[0], 0) + 1
                                poly = g.poly
                                assert not poly.is_zero() and poly.is_homogeneous(), (cfg, p, g)
                                assert poly.degree() == degrees[g.label[0]], (cfg, p, g)
                            assert sizes == _family_sizes(p, cfg, gram), (cfg, p)
                            sets += 1
                        equations._matrix_table.cache_clear()
                        equations._gram_table.cache_clear()
                        equations._generators.cache_clear()
    assert sets == 1026


@pytest.mark.parametrize(
    "kind,e,f,dense", [("symmetric", 4, 3, OrbitParams(3, 3)), ("alternating", 6, 4, OrbitParams(4, 4))]
)
def test_dense_stratum_has_no_gram_generator_when_e_exceeds_f(kind, e, f, dense):
    # the Gram image has rank at most f, so its (f+1)-minors and
    # (f+2)-sub-Pfaffians are zero and are not generators
    cfg = split_config(e, f, kind, F7)
    assert len(generators_for(dense, cfg)) == 0


def test_family_counts_are_closed_forms(monkeypatch, fresh_caches):
    # on every stratum with e <= 4, f <= 8 over F_7: the families' counts
    # are the closed forms, each lists as many label tails as it counts,
    # and the set's length reads the counts without expanding a member
    calls = []
    real = equations._add_product
    monkeypatch.setattr(equations, "_add_product", lambda *args: calls.append(1) or real(*args))
    fresh_caches(equations, "_generators")
    sets = 0
    for kind, gram in (("symmetric", "split"), ("symmetric", "identity"), ("alternating", "split")):
        for e in range(1, 5):
            for f in range(4, 9, 2) if kind == "alternating" else range(3, 9):
                form = BilinearForm.from_json(F7, {"kind": kind, "gram": gram}, f)
                cfg = SpaceConfig(e, f, F7, form)
                for p in valid_params(cfg):
                    try:
                        gens = generators_for(p, cfg)
                    except StratumUnavailable:
                        continue
                    sizes = _family_sizes(p, cfg, gram)
                    assert {fam.tag: fam.count for fam in gens.families} == sizes, (cfg, p)
                    for fam in gens.families:
                        assert fam.count == sum(1 for _ in fam.tails()), (cfg, p, fam.tag)
                    assert len(gens) == sum(sizes.values())
                    sets += 1
    assert calls == []
    assert sets == 414


def test_one_generator_set_per_stratum_and_configuration():
    # every caller shares the set, so its members are made and compiled once
    cfg = split_config(2, 4, "symmetric", F5)
    for p in valid_params(cfg):
        assert generators_for(p, cfg) is generators_for(p, split_config(2, 4, "symmetric", F5))


def test_rebuild_expands_only_the_generator_it_returns(monkeypatch, fresh_caches):
    fresh_caches(equations, "_matrix_table", "_gram_table", "_generators")
    cfg = split_config(4, 8, "symmetric", F7)
    rows = (0, 1, 2, 3)
    g = rebuild_generator(("minor", rows, rows), cfg)
    assert g.poly.degree() == 4
    gram = equations._gram_table(cfg)
    assert gram._minors == {} and gram._pfaffians == {}
    # the matrix table holds the Laplace tree of that one minor
    minors = equations._matrix_table(F7, 4, 8)._minors
    assert minors and all(set(S) <= set(rows) for _, S in minors)
    assert g.poly == minor_polynomial(cfg, rows, rows)


def test_generator_json_and_text():
    cfg = split_config(2, 4, "alternating", F5)
    gens = rank_condition_generators(OrbitParams(1, 0), cfg)
    payload = gens.to_json()
    assert all({"label", "degree", "terms"} <= set(obj) for obj in payload)
    text = gens.to_text()
    assert "minor([0,1],[0,1])" in text


# ---------------------------------------------------------------- star operator

def _dense_star(st):
    """The involution as a dense Matrix, built from its sparse columns."""
    F, n = st.field, len(st.subsets)
    grid = [[F.zero] * n for _ in range(n)]
    for k, col in enumerate(st.columns):
        for u, s in col:
            grid[u][k] = s
    return Matrix(F, grid, n, n)


def _dense_projector(st, eigenvalue):
    """The projector as a dense Matrix, built from its sparse non-zero
    rows, which must list non-zero entries with the columns ascending."""
    F, n = st.field, len(st.subsets)
    grid = [[F.zero] * n for _ in range(n)]
    for u, row in st.projector(eigenvalue):
        assert row and [k for k, _ in row] == sorted({k for k, _ in row})
        for k, c in row:
            assert c != F.zero
            grid[u][k] = c
    return Matrix(F, grid, n, n)


def test_star_f2_identity():
    frm = BilinearForm("symmetric", Matrix.identity(F5, 2))
    st = star_operator(frm)
    # star(e1) = e2, star(e2) = -e1, mu^2 = -1
    assert st.columns == (((1, F5.one),), ((0, F5.neg(F5.one)),))
    assert _dense_star(st) == Matrix.from_ints(F5, [[0, -1], [1, 0]])
    assert F5.mul(st.mu, st.mu) == F5.neg(F5.one)


def test_star_squares_to_scalar():
    for f in (2, 4, 6):
        for gram_kind in ("identity", "split"):
            if gram_kind == "identity":
                frm = BilinearForm("symmetric", Matrix.identity(F5, f))
            else:
                frm = BilinearForm.split(F5, "symmetric", f)
            st = star_operator(frm)
            n = len(st.subsets)
            detk = frm.gram.det()
            scalar = detk if (f // 2) % 2 == 0 else F5.neg(detk)
            dense = _dense_star(st)
            assert dense @ dense == Matrix.identity(F5, n).scale(scalar)
            # a diagonal or split Gram sends each e_S to a multiple of one e_T
            assert all(len(col) == 1 for col in st.columns)
            assert F5.mul(st.mu, st.mu) == scalar


def _random_symmetric_grams(F, f, count, rng):
    out = []
    while len(out) < count:
        grid = [[F.zero] * f for _ in range(f)]
        for i in range(f):
            for j in range(i, f):
                grid[i][j] = grid[j][i] = F.random(rng)
        gram = Matrix(F, grid, f, f)
        if not F.is_zero(gram.det()):
            out.append(gram)
    return out


def test_star_inverts_the_compound_gram():
    # oracle: Lambda^m(K) star = P, with Lambda^m(K) built from the minors
    # of K and P the wedge pairing e_S ^ e_T = sgn(S, T) when T = S^c
    F49 = field_create("quadratic-extension", 7)
    rng = random.Random(17)
    grams = [Matrix.identity(F5, f) for f in (2, 4, 6)]
    grams += [g for f in (2, 4, 6) for g in _random_symmetric_grams(F49, f, 4, rng)]
    built = 0
    for gram in grams:
        F, f = gram.field, gram.rows
        m = f // 2
        try:
            st = star_operator(BilinearForm("symmetric", gram))
        except EigenvalueNotInField:
            continue
        built += 1
        subsets = list(combinations(range(f), m))
        compound = Matrix(F, [[gram.minor(U, T) for T in subsets] for U in subsets])
        wedge = []
        for T in subsets:
            row = []
            for S in subsets:
                seq = list(S) + list(T)
                inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1 :])
                sgn = F.one if inversions % 2 == 0 else F.neg(F.one)
                row.append(sgn if set(T).isdisjoint(S) else F.zero)
            wedge.append(row)
        assert compound @ _dense_star(st) == Matrix(F, wedge)
        mu_sq = F.inv(gram.det()) if m % 2 == 0 else F.neg(F.inv(gram.det()))
        assert F.mul(st.mu, st.mu) == mu_sq
    assert built >= 9


def test_components_of_a_non_unimodular_gram():
    # det K = 2 over F_7, so star^2 = 1/det K differs from det K
    gram = Matrix.from_ints(F7, [[2, 1, 0, 0], [1, 3, 0, 1], [0, 0, 1, 0], [0, 1, 0, 5]])
    cfg = SpaceConfig(2, 4, F7, BilinearForm("symmetric", gram))
    assert gram.det() == 2
    for sign in "+-":
        gens = component_generators(sign, cfg)
        for other in "+-":
            for i in range(10):
                pt = random_orbit_point(OrbitParams(2, 0, other), cfg, seed=i)
                assert classify(pt, cfg) == OrbitParams(2, 0, other)
                assert gens.all_vanish(pt) == (sign == other)


def test_components_of_dense_grams_match_the_compound_oracle():
    # a non-diagonal Gram gives dense involution columns, which the split
    # form never reaches; the oracle builds star = Lambda^m(K)^{-1} P from
    # the minors of K, reads the reference eigenvalue off its dense product
    # and projects the generic maximal minors
    F49 = field_create("quadratic-extension", 7)
    rng = random.Random(23)
    built = 0
    for f, e in ((4, 2), (4, 3), (6, 3)):
        for gram in _random_symmetric_grams(F49, f, 3, rng):
            F, m = F49, f // 2
            cfg = SpaceConfig(e, f, F, BilinearForm("symmetric", gram))
            try:
                sets = {sign: component_generators(sign, cfg) for sign in "+-"}
            except StratumUnavailable:
                continue
            built += 1
            assert max(len(col) for col in star_operator(cfg.form).columns) > 1
            subsets = list(combinations(range(f), m))
            compound = Matrix(F, [[gram.minor(U, T) for T in subsets] for U in subsets])
            wedge = [[F.zero] * len(subsets) for _ in subsets]
            for j, S in enumerate(subsets):
                T = tuple(i for i in range(f) if i not in S)
                seq = S + T
                inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1 :])
                wedge[subsets.index(T)][j] = F.one if inversions % 2 == 0 else F.neg(F.one)
            star = compound.inverse() @ Matrix(F, wedge)
            rows = representative(OrbitParams(m, 0, "+"), cfg)
            v0 = Matrix(F, [[rows.minor(tuple(range(m)), S)] for S in subsets])
            image = star @ v0
            i0 = next(i for i, row in enumerate(v0.data) if row[0] != F.zero)
            lam = F.div(image[i0, 0], v0[i0, 0])
            assert image == v0.scale(lam)
            ident = Matrix.identity(F, len(subsets))
            half = F.inv(F.from_int(2))
            quadratics = [(("quadratic-invariant", i, j), generic_gram_map(cfg)[i][j])
                          for i in range(e) for j in range(i, e)]
            for sign, gens in sets.items():
                target = F.neg(lam) if sign == "+" else lam
                proj = (ident + star.scale(F.inv(target))).scale(half)
                expected = list(quadratics)
                for T in combinations(range(e), m):
                    for u, prow in enumerate(proj.data):
                        poly = Polynomial.zero(F, e * f)
                        for c, S in zip(prow, subsets):
                            poly = poly + minor_polynomial(cfg, T, S).scale(c)
                        if not poly.is_zero():
                            expected.append((("component", sign, T, u), poly))
                assert [(g.label, g.poly) for g in gens] == expected
    assert built >= 5


def test_star_projector_algebra():
    frm = BilinearForm.split(F5, "symmetric", 4)
    st = star_operator(frm)
    n = len(st.subsets)
    plus = _dense_projector(st, st.mu)
    minus = _dense_projector(st, F5.neg(st.mu))
    ident = Matrix.identity(F5, n)
    assert plus + minus == ident
    assert plus @ plus == plus
    assert minus @ minus == minus
    assert plus @ minus == Matrix.zeros(F5, n, n)


def test_star_errors():
    with pytest.raises(WrongKind):
        star_operator(BilinearForm.split(F5, "alternating", 4))
    with pytest.raises(OddDimension):
        star_operator(BilinearForm.split(F5, "symmetric", 5))
    # over F_7 the f=2 identity form needs sqrt(-1), which lives upstairs
    with pytest.raises(EigenvalueNotInField):
        star_operator(BilinearForm("symmetric", Matrix.identity(F7, 2)))
    F49 = field_create("quadratic-extension", 7)
    frm = BilinearForm("symmetric", Matrix.identity(F49, 2))
    st = star_operator(frm)
    assert F49.mul(st.mu, st.mu) == F49.neg(F49.one)


def test_star_built_once_per_form():
    frm = BilinearForm.split(F5, "symmetric", 4)
    assert star_operator(frm) is star_operator(BilinearForm.split(F5, "symmetric", 4))


def test_star_consistency_checks_raise_typed_errors(monkeypatch, fresh_caches):
    # a wrong shuffle sign breaks star^2 = mu^2 * id
    fresh_caches(equations, "star_operator")
    monkeypatch.setattr(equations, "_shuffle_sign", lambda F, S, f: (F.one, tuple(i for i in range(f) if i not in S)))
    with pytest.raises(ConsistencyCheckFailed):
        equations.star_operator(BilinearForm("symmetric", Matrix.identity(F5, 2)))
    # an operator whose reference ratio is not +/- mu
    cfg = split_config(2, 4, "symmetric", F5)
    real = star_operator(cfg.form)
    fake = StarOperator(F5, 4, real.subsets, tuple(((k, F5.from_int(2)),) for k in range(len(real.subsets))), F5.one)
    with pytest.raises(ConsistencyCheckFailed):
        equations._reference_eigenvalue(fake, cfg)


# ---------------------------------------------------------------- component generators

def test_component_convention_and_degrees():
    for gram_kind in ("split", "identity"):
        if gram_kind == "split":
            cfg = split_config(2, 4, "symmetric", F5)
        else:
            cfg = SpaceConfig(2, 4, F5, BilinearForm("symmetric", Matrix.identity(F5, 4)))
        reps = {s: representative(OrbitParams(2, 0, s), cfg) for s in "+-"}
        for sign in "+-":
            gens = component_generators(sign, cfg)
            assert gens.all_vanish(reps[sign])
            assert not gens.all_vanish(reps["+" if sign == "-" else "-"])
            for g in gens:
                if g.label[0] == "quadratic-invariant":
                    assert g.poly.degree() == 2
                else:
                    assert g.label[0] == "component"
                    assert g.poly.degree() == cfg.f // 2
                assert g.poly.is_homogeneous()
        # quadratic invariants vanish on both representatives
        w_only = [g for g in component_generators("+", cfg) if g.label[0] == "quadratic-invariant"]
        for g in w_only:
            for rep in reps.values():
                assert g.poly.evaluate(rep.flat()) == F5.zero


def test_component_det_split_in_orthonormal_coordinates():
    """In orthonormal coordinates the two component spans contain
    det(X) + det(Y) and det(X) - det(Y), X and Y the column blocks."""
    cfg = SpaceConfig(2, 4, F5, BilinearForm("symmetric", Matrix.identity(F5, 4)))
    det_x = minor_polynomial(cfg, (0, 1), (0, 1))
    det_y = minor_polynomial(cfg, (0, 1), (2, 3))
    su = det_x + det_y
    di = det_x - det_y

    def span_contains(gens, target):
        polys = [g.poly for g in gens if g.label[0] == "component"]
        monomials = sorted({e for p in polys for e in p.terms} | set(target.terms))
        rows = [[p.terms.get(e, F5.zero) for e in monomials] for p in polys]
        base = Matrix(F5, rows, len(rows), len(monomials))
        trow = Matrix(F5, [[target.terms.get(e, F5.zero) for e in monomials]], 1, len(monomials))
        return base.vstack(trow).rank() == base.rank()

    plus = component_generators("+", cfg)
    minus = component_generators("-", cfg)
    in_plus = {name for name, t in (("sum", su), ("diff", di)) if span_contains(plus, t)}
    in_minus = {name for name, t in (("sum", su), ("diff", di)) if span_contains(minus, t)}
    assert in_plus and in_minus
    assert in_plus | in_minus == {"sum", "diff"}
    assert in_plus.isdisjoint(in_minus)


def test_component_errors():
    with pytest.raises(InvalidParams):
        component_generators("+", split_config(2, 4, "alternating", F5))
    with pytest.raises(InvalidParams):
        component_generators("+", split_config(1, 4, "symmetric", F5))
    with pytest.raises(InvalidParams):
        component_generators("x", split_config(2, 4, "symmetric", F5))


# ---------------------------------------------------------------- vanishing vs closure

def test_vanishing_matches_closure_order_sampled():
    for kind in ("symmetric", "alternating"):
        for e in (1, 2, 3):
            for f in (3, 4, 5):
                if kind == "alternating" and f % 2:
                    continue
                cfg = split_config(e, f, kind, F5)
                params = valid_params(cfg)
                gens = {
                    q: (component_generators(q.sign, cfg) if q.sign else rank_condition_generators(q, cfg))
                    for q in params
                }
                for p in params:
                    points = [
                        random_orbit_point(p, cfg, seed=f"{kind}:{e}:{f}:{p}:{i}")
                        for i in range(100)
                    ]
                    for q in params:
                        expected = closure_leq(p, q, cfg)
                        for pt in points:
                            assert gens[q].all_vanish(pt) == expected, (kind, e, f, str(p), str(q))


def test_zero_polynomial_evaluates_zero():
    cfg = split_config(2, 4, "symmetric", F5)
    z = Polynomial.zero(F5, 8)
    assert z.evaluate(Matrix.zeros(F5, 2, 4).flat()) == F5.zero


def test_a_matrix_over_another_field_is_refused():
    # payloads of another field are no values of the ring: a typed error,
    # not a verdict (an F_5 zero matrix used to pass as vanishing here)
    cfg = split_config(2, 4, "symmetric", F7)
    gens = generators_for(OrbitParams(1, 0), cfg)
    for phi in (Matrix.zeros(F5, 2, 4), Matrix.zeros(Q, 2, 4)):
        with pytest.raises(DimensionMismatch):
            gens.all_vanish(phi)
    assert gens.all_vanish(Matrix.zeros(F7, 2, 4))


def test_a_matrix_of_another_shape_is_refused():
    # a 4x2 matrix has the 8 entries of a 2x4 one, but read flat it is no
    # point of the ring: the minor x11*x22 + 6*x12*x21 takes the value 1
    # there, so the generator set refuses the shape instead of a verdict
    cfg = split_config(2, 4, "symmetric", F7)
    tall = Matrix(F7, [[1, 0], [0, 0], [0, 1], [0, 0]])
    assert minor_polynomial(cfg, (0, 1), (0, 1)).evaluate(tall.flat()) == F7.one
    with pytest.raises(DimensionMismatch):
        generators_for(OrbitParams(1, 0), cfg).all_vanish(tall)


@pytest.mark.parametrize("p", [3, 7])
@pytest.mark.parametrize("kind", ["symmetric", "alternating"])
def test_prime_polyval_matches_the_generic_kernel(kind, p):
    # oracle for the override: Field.polyval, written from add and mul,
    # called on the same field at seeded points
    F = field_create("prime", p)
    cfg = split_config(2, 4, kind, F)
    rng = random.Random(f"polyval:{kind}:{p}")
    points = [[F.zero] * 8] + [F.random_row(rng, 8) for _ in range(20)]
    assert F.polyval((), points[1]) == Field.polyval(F, (), points[1]) == F.zero
    checked = 0
    for params in valid_params(cfg):
        try:
            gens = generators_for(params, cfg)
        except StratumUnavailable:
            continue
        for g in gens:
            terms = g.poly.compiled()
            for x in points:
                assert F.polyval(terms, x) == Field.polyval(F, terms, x), (str(params), g.label)
            checked += 1
    assert checked > 0
