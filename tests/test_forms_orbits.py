import hashlib
import json
import random
from itertools import product

import pytest

from isodet.errors import (
    ConsistencyCheckFailed,
    InsufficientWittIndex,
    InvalidForm,
    InvalidParams,
    SignUndefinedForForm,
    StratumUnavailable,
    SymmetryMismatch,
)
from isodet.fields import field_create
from isodet.forms_orbits import (
    _diagonalize_restriction,
    _find_isotropic,
    BilinearForm,
    OrbitParams,
    SpaceConfig,
    classify,
    closure_leq,
    codimension,
    dimension,
    facts,
    gram_map,
    hyperbolic_swap,
    isotropic_rank,
    random_isometry,
    random_orbit_point,
    representative,
    solve_congruence,
    split_config,
    tangent_dimension,
    valid_params,
)
from isodet import forms_orbits
from isodet.linalg import Matrix, random_matrix

F5 = field_create("prime", 5)
F7 = field_create("prime", 7)
F11 = field_create("prime", 11)
F25 = field_create("quadratic-extension", 5)
F49 = field_create("quadratic-extension", 7)
Q = field_create("rationals")


def grid_configs(field, emax=3, fs=(3, 4, 5, 6)):
    out = []
    for kind in ("symmetric", "alternating"):
        for e in range(1, emax + 1):
            for f in fs:
                if kind == "alternating" and f % 2:
                    continue
                out.append(split_config(e, f, kind, field))
    return out


# ---------------------------------------------------------------- forms

def test_form_validation():
    with pytest.raises(InvalidForm):
        BilinearForm("symmetric", Matrix.from_ints(F5, [[1, 0], [0, 0]]))  # degenerate
    with pytest.raises(InvalidForm):
        BilinearForm("alternating", Matrix.identity(F5, 2))
    with pytest.raises(InvalidForm):
        BilinearForm("alternating", BilinearForm.split(F5, "alternating", 4).gram.submatrix([0, 1, 2], [0, 1, 2]))
    with pytest.raises(InvalidForm):
        SpaceConfig(0, 4, F5, BilinearForm.split(F5, "symmetric", 4))
    with pytest.raises(InvalidForm):
        SpaceConfig(2, 2, F5, BilinearForm.split(F5, "symmetric", 2))


@pytest.mark.parametrize("f", [1, 3, 5])
def test_odd_alternating_form_names_the_dimension(f):
    # an odd skew matrix is always degenerate, so the dimension is checked first
    skew = BilinearForm.split(F5, "alternating", f + 1).gram.submatrix(list(range(f)), list(range(f)))
    with pytest.raises(InvalidForm, match="alternating form needs even dimension"):
        BilinearForm("alternating", skew)


def test_split_form_shapes():
    sym = BilinearForm.split(F5, "symmetric", 5)
    assert sym.gram.is_symmetric()
    assert sym.gram[2, 2] == F5.one  # odd middle
    alt = BilinearForm.split(F5, "alternating", 4)
    assert alt.gram.is_skew()
    assert alt.gram.pfaffian() == F5.one


def test_hyperbolic_basis_split():
    frm = BilinearForm.split(F7, "symmetric", 5)
    hb = frm.hyperbolic_basis()
    assert hb.witt == 2 and len(hb.anisotropic) == 1
    for a, b in hb.pairs:
        assert frm.beta(a, a) == F7.zero
        assert frm.beta(b, b) == F7.zero
        assert frm.beta(a, b) == F7.one
    for c in hb.anisotropic:
        assert frm.beta(c, c) != F7.zero


def test_hyperbolic_basis_custom_gram():
    # identity Gram over F_5: -1 is a square, so the Witt index is 2
    frm = BilinearForm("symmetric", Matrix.identity(F5, 4))
    hb = frm.hyperbolic_basis()
    assert hb.witt == 2 and not hb.anisotropic
    for a, b in hb.pairs:
        assert frm.beta(a, a) == F5.zero
        assert frm.beta(b, b) == F5.zero
        assert frm.beta(a, b) == F5.one
    # cross pairs orthogonal
    (a1, b1), (a2, b2) = hb.pairs
    for u in (a1, b1):
        for v in (a2, b2):
            assert frm.beta(u, v) == F5.zero

    # identity Gram over F_7: -1 is not a square, x^2+y^2+z^2+t^2 still isotropic
    frm7 = BilinearForm("symmetric", Matrix.identity(F7, 4))
    assert frm7.hyperbolic_basis().witt == 2

    # over Q the identity form is anisotropic; the greedy search finds no pair
    frmq = BilinearForm("symmetric", Matrix.identity(Q, 3))
    hbq = frmq.hyperbolic_basis()
    assert hbq.witt == 0 and len(hbq.anisotropic) == 3
    with pytest.raises(SignUndefinedForForm):
        BilinearForm("symmetric", Matrix.identity(Q, 4)).reference_isotropic()


def random_forms(F, kind, count, rng, dims=(3, 4, 5, 6)):
    """Non-degenerate, non-split forms with random Gram entries (small
    integers over Q), about half of them with a zero diagonal."""
    out = []
    while len(out) < count:
        f = rng.choice([d for d in dims if kind == "symmetric" or d % 2 == 0])
        zero_diag = kind == "alternating" or rng.random() < 0.5
        grid = [[F.zero] * f for _ in range(f)]
        for i in range(f):
            for j in range(i, f):
                if i == j and zero_diag:
                    continue
                v = F.random(rng) if F.order else F.from_int(rng.randint(-3, 3))
                grid[i][j], grid[j][i] = v, (v if kind == "symmetric" else F.neg(v))
        gram = Matrix(F, grid, f, f)
        if F.is_zero(gram.det()):
            continue
        form = BilinearForm(kind, gram)
        if not form.is_split_standard():
            out.append(form)
    return out


@pytest.mark.parametrize("F", [F7, F25, Q], ids=["F7", "F25", "Q"])
@pytest.mark.parametrize("kind", ["symmetric", "alternating"])
def test_hyperbolic_basis_valid_on_random_grams(F, kind):
    rng = random.Random(11)
    for frm in random_forms(F, kind, 12, rng):
        hb = frm.hyperbolic_basis()
        assert 2 * hb.witt + len(hb.anisotropic) == frm.f
        vecs = [v for pair in hb.pairs for v in pair] + list(hb.anisotropic)
        assert Matrix(F, vecs, frm.f, frm.f).rank() == frm.f
        for i, (a, b) in enumerate(hb.pairs):
            assert frm.beta(a, a) == frm.beta(b, b) == F.zero
            for j, (c, d) in enumerate(hb.pairs):
                assert frm.beta(a, d) == (F.one if i == j else F.zero)
                if i != j:
                    assert frm.beta(a, c) == frm.beta(b, d) == F.zero
        for k, c in enumerate(hb.anisotropic):
            assert frm.beta(c, c) != F.zero
            others = [v for pair in hb.pairs for v in pair] + list(hb.anisotropic[k + 1 :])
            assert all(frm.beta(c, v) == F.zero for v in others)
        if kind == "alternating":
            assert hb.witt == frm.f // 2


@pytest.mark.parametrize("F", [field_create("prime", 3), field_create("quadratic-extension", 3), Q],
                         ids=["F3", "F9", "Q"])
@pytest.mark.parametrize("kind", ["symmetric", "alternating"])
def test_times_gram_and_beta_match_the_matrix_product(F, kind):
    # oracle: Matrix.__matmul__, which shares no code with the form's
    # sparse columns of K
    rng = random.Random(17)
    for frm in random_forms(F, kind, 6, rng):
        for _ in range(5):
            u, v = (tuple(F.random(rng) if F.order else F.from_int(rng.randint(-4, 4)) for _ in range(frm.f))
                    for _ in range(2))
            uk = Matrix(F, [u]) @ frm.gram
            assert frm.times_gram(u) == list(uk.data[0])
            assert frm.beta(u, v) == (uk @ Matrix(F, [v]).T)[0, 0]


def test_diagonalization_of_a_degenerate_span_is_a_typed_error():
    frm = BilinearForm.split(F5, "symmetric", 4)
    with pytest.raises(ConsistencyCheckFailed):
        _diagonalize_restriction(frm, [(1, 0, 0, 0)])


def test_form_json_roundtrip():
    frm = BilinearForm.split(F5, "alternating", 4)
    assert frm.to_json() == {"kind": "alternating", "gram": "split"}
    assert BilinearForm.from_json(F5, frm.to_json(), f=4) == frm
    custom = BilinearForm("symmetric", Matrix.identity(F5, 4))
    assert BilinearForm.from_json(F5, custom.to_json()) == custom


# ---------------------------------------------------------------- gram map

def test_gram_map_examples():
    cfg = split_config(1, 4, "symmetric", F5)
    zero = Matrix.zeros(F5, 1, 4)
    assert gram_map(zero, cfg.form) == Matrix.zeros(F5, 1, 1)
    a1 = Matrix.from_ints(F5, [[1, 0, 0, 0]])
    assert gram_map(a1, cfg.form) == Matrix.zeros(F5, 1, 1)
    a1b1 = Matrix.from_ints(F5, [[1, 0, 0, 1]])
    assert gram_map(a1b1, cfg.form) == Matrix.from_ints(F5, [[2]])


def test_gram_map_dimension_errors():
    from isodet.errors import DimensionMismatch

    cfg = split_config(2, 4, "symmetric", F5)
    with pytest.raises(DimensionMismatch):
        gram_map(Matrix.zeros(F5, 2, 3), cfg.form)
    with pytest.raises(DimensionMismatch):
        classify(Matrix.zeros(F5, 3, 4), cfg)
    with pytest.raises(DimensionMismatch):
        gram_map(Matrix.zeros(F7, 2, 4), cfg.form)  # wrong field


def test_isotropic_rank_examples():
    cfg = split_config(2, 4, "symmetric", F5)
    assert isotropic_rank(Matrix.zeros(F5, 2, 4), cfg.form) == 0
    rows_a = Matrix.from_ints(F5, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert isotropic_rank(rows_a, cfg.form) == 0
    rows_ab = Matrix.from_ints(F5, [[1, 0, 0, 1], [0, 1, 1, 0]])
    # Gram of the two rows is 2 * identity
    assert gram_map(rows_ab, cfg.form) == Matrix.from_ints(F5, [[2, 0], [0, 2]])
    assert isotropic_rank(rows_ab, cfg.form) == 2


def test_gram_map_symmetry_property():
    rng = random.Random(101)
    for kind in ("symmetric", "alternating"):
        cfg = split_config(3, 4, kind, F7)
        for _ in range(500):
            phi = random_matrix(F7, 3, 4, rng)
            g = gram_map(phi, cfg.form)
            if kind == "symmetric":
                assert g.is_symmetric()
            else:
                assert g.is_skew()


@pytest.mark.parametrize("field", [F49, Q], ids=["F49", "Q"])
def test_gram_map_is_phi_k_phi_t_on_dense_grams(field):
    # oracle: the two dense products, on Grams m + m^t and m - m^t with
    # every entry of m drawn
    rng = random.Random(17)
    for kind, sign in (("symmetric", field.one), ("alternating", field.neg(field.one))):
        forms = 0
        while forms < 8:
            m = random_matrix(field, 4, 4, rng)
            k = m + m.T.scale(sign)
            if k.det() == field.zero:
                continue
            forms += 1
            for rows in (0, 1, 3):
                phi = random_matrix(field, rows, 4, rng)
                assert gram_map(phi, BilinearForm(kind, k)) == phi @ k @ phi.T


def test_gram_map_equivariance():
    rng = random.Random(53)
    from isodet.linalg import random_invertible

    for kind in ("symmetric", "alternating"):
        cfg = split_config(3, 4, kind, F7)
        for i in range(200):
            phi = random_matrix(F7, 3, 4, rng)
            a = random_invertible(F7, 3, rng)
            b = random_isometry(cfg.form, rng=rng)
            assert gram_map(a @ phi @ b.T, cfg.form) == a @ gram_map(phi, cfg.form) @ a.T


# ---------------------------------------------------------------- parameters

def brute_force_params(e, f, kind):
    """Independent oracle: filter all pairs against the three conditions."""
    out = []
    for r1 in range(e + 1):
        for r2 in range(r1 + 1):
            if 2 * r1 - r2 > f:
                continue
            if kind == "alternating" and r2 % 2:
                continue
            out.append((r1, r2))
    return out


def test_valid_params_examples():
    cfg = split_config(2, 4, "alternating", F5)
    assert [(p.r1, p.r2) for p in valid_params(cfg)] == [(0, 0), (1, 0), (2, 0), (2, 2)]

    cfg = split_config(2, 3, "symmetric", F5)
    assert [(p.r1, p.r2) for p in valid_params(cfg)] == [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]

    cfg = split_config(2, 4, "symmetric", F5)
    labels = [str(p) for p in valid_params(cfg)]
    assert "(2,0,+)" in labels and "(2,0,-)" in labels


def test_valid_params_against_bruteforce():
    for cfg in grid_configs(F5):
        expected = brute_force_params(cfg.e, cfg.f, cfg.kind)
        got = []
        for p in valid_params(cfg):
            pair = (p.r1, p.r2)
            if pair not in got:
                got.append(pair)
        assert got == expected


# ---------------------------------------------------------------- classify / representative

def test_classify_zero():
    cfg = split_config(2, 4, "symmetric", F5)
    assert classify(Matrix.zeros(F5, 2, 4), cfg) == OrbitParams(0, 0)


def _random_forms(field, rng):
    """A random diagonal symmetric form for f = 3..8 and a random
    non-degenerate alternating one for even f."""
    def draw():
        while field.is_zero(x := field.random(rng)):
            pass
        return x

    zero = field.zero
    for f in range(3, 9):
        yield BilinearForm("symmetric", Matrix(field, [[draw() if i == j else zero for j in range(f)]
                                                        for i in range(f)], f, f))
        if f % 2:
            continue
        while True:
            rows = [[zero] * f for _ in range(f)]
            for i in range(f):
                for j in range(i + 1, f):
                    rows[i][j] = field.random(rng)
                    rows[j][i] = field.neg(rows[i][j])
            gram = Matrix(field, rows, f, f)
            if not field.is_zero(gram.det()):
                yield BilinearForm("alternating", gram)
                break


def test_classify_representative_roundtrip_all_grids():
    for field in (F7, Q):
        for cfg in grid_configs(field):
            for p in valid_params(cfg):
                rep = representative(p, cfg)
                assert classify(rep, cfg) == p, (cfg.kind, cfg.e, cfg.f, str(p))
    # on random forms, split or not, a stratum either round-trips or is
    # refused for want of hyperbolic pairs, and for nothing else
    rng = random.Random(38)
    for field in (field_create("prime", 3), F5, field_create("quadratic-extension", 3), Q):
        for form in _random_forms(field, rng):
            witt = form.hyperbolic_basis().witt
            for e in sorted({1, 2, 3, form.f}):
                cfg = SpaceConfig(e, form.f, field, form)
                for p in valid_params(cfg):
                    label = (field.descriptor(), form.kind, e, form.f, str(p))
                    try:
                        rep = representative(p, cfg)
                    except InsufficientWittIndex:
                        assert p.r1 - p.r2 > witt, label
                        continue
                    assert classify(rep, cfg) == p, label


def test_classify_sign_examples():
    cfg = split_config(2, 4, "symmetric", F5)
    plus = Matrix.from_ints(F5, [[1, 0, 0, 0], [0, 1, 0, 0]])   # rows a1, a2
    minus = Matrix.from_ints(F5, [[1, 0, 0, 0], [0, 0, 1, 0]])  # rows a1, b2
    assert classify(plus, cfg) == OrbitParams(2, 0, "+")
    assert classify(minus, cfg) == OrbitParams(2, 0, "-")


def test_representative_examples():
    cfg = split_config(2, 4, "alternating", F5)
    assert representative(OrbitParams(0, 0), cfg) == Matrix.zeros(F5, 2, 4)
    rep22 = representative(OrbitParams(2, 2), cfg)
    assert rep22 == Matrix.from_ints(F5, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert gram_map(rep22, cfg.form) == Matrix.from_ints(F5, [[0, 1], [4, 0]])

    cfg34 = split_config(3, 4, "symmetric", F5)
    rep32 = representative(OrbitParams(3, 2), cfg34)
    assert rep32.rank() == 3
    assert isotropic_rank(rep32, cfg34.form) == 2
    assert classify(rep32, cfg34) == OrbitParams(3, 2)

    with pytest.raises(InvalidParams):
        representative(OrbitParams(3, 0), split_config(3, 4, "symmetric", F5))


# ---------------------------------------------------------------- dimensions

def test_codimension_examples():
    alt = split_config(2, 4, "alternating", F5)
    assert codimension(OrbitParams(2, 2), alt) == 0
    assert codimension(OrbitParams(2, 0), alt) == 1
    assert dimension(OrbitParams(2, 0), alt) == 7
    sym = split_config(2, 4, "symmetric", F5)
    assert codimension(OrbitParams(2, 0, "+"), sym) == 3
    assert dimension(OrbitParams(2, 0, "+"), sym) == 5
    with pytest.raises(InvalidParams):
        codimension(OrbitParams(3, 0), sym)


def test_tangent_dimension_examples():
    alt = split_config(2, 4, "alternating", F5)
    assert tangent_dimension(Matrix.zeros(F5, 2, 4), alt) == 0
    assert tangent_dimension(representative(OrbitParams(2, 2), alt), alt) == 8
    sym = split_config(2, 4, "symmetric", F5)
    assert tangent_dimension(representative(OrbitParams(2, 0, "+"), sym), sym) == 5


def test_tangent_matches_formula_all_grids_over_Q():
    for cfg in grid_configs(Q):
        for p in valid_params(cfg):
            rep = representative(p, cfg)
            assert tangent_dimension(rep, cfg) == cfg.e * cfg.f - codimension(p, cfg)


# ---------------------------------------------------------------- closure order

def test_closure_examples():
    sym = split_config(2, 4, "symmetric", F5)
    for p in valid_params(sym):
        assert closure_leq(p, p, sym)
    assert not closure_leq(OrbitParams(2, 0, "+"), OrbitParams(2, 0, "-"), sym)
    assert closure_leq(OrbitParams(1, 0), OrbitParams(2, 0, "+"), sym)
    assert closure_leq(OrbitParams(1, 0), OrbitParams(2, 0, "-"), sym)
    assert not closure_leq(OrbitParams(1, 1), OrbitParams(2, 0, "+"), sym)
    with pytest.raises(InvalidParams):
        closure_leq(OrbitParams(3, 0), OrbitParams(2, 2), sym)


def test_closure_is_partial_order():
    for cfg in grid_configs(F5):
        params = valid_params(cfg)
        for p in params:
            assert closure_leq(p, p, cfg)
        for p, q in product(params, params):
            if closure_leq(p, q, cfg) and closure_leq(q, p, cfg):
                assert p == q
        for p, q, r in product(params, params, params):
            if closure_leq(p, q, cfg) and closure_leq(q, r, cfg):
                assert closure_leq(p, r, cfg)


# ---------------------------------------------------------------- facts

def test_facts_examples():
    alt = split_config(2, 4, "alternating", F5)
    for p in valid_params(alt):
        fx = facts(p, alt)
        assert fx.normal is True
        assert fx.rational_singularities_char0 is True

    sym34 = split_config(3, 4, "symmetric", F5)
    fx = facts(OrbitParams(3, 2), sym34)
    assert fx.normal is False and fx.cohen_macaulay == "yes"

    sym54 = split_config(5, 4, "symmetric", F5)
    fx = facts(OrbitParams(3, 2), sym54)
    assert fx.normal is False and fx.cohen_macaulay == "no"


def test_facts_consistency():
    for cfg in grid_configs(F5):
        for p in valid_params(cfg):
            fx = facts(p, cfg)
            assert fx.dim + fx.codim == cfg.e * cfg.f
            if fx.strongly_f_regular == "yes":
                assert fx.cohen_macaulay in ("yes", "yes-if-char0")
            if cfg.kind == "alternating":
                assert fx.normal
            if fx.rational_singularities_char0:
                assert fx.normal


# sha256 of facts(...).to_json() for every admissible stratum of the split
# forms with e <= 7 and f <= 14 over F_7 (1473 strata), recorded with the
# nested-branch facts rule that the flat one replaced.
FACTS_TABLE_SHA256 = "b5e3fdfb7a5c87c1bbbb4f5db631ee8639134b3e07e342c4210f92c13824323d"


def test_facts_table_digest():
    rows = []
    for kind in ("symmetric", "alternating"):
        for e in range(1, 8):
            for f in range(3, 15):
                if kind == "alternating" and f % 2:
                    continue
                cfg = split_config(e, f, kind, F7)
                rows += [json.dumps(facts(p, cfg).to_json(), sort_keys=True) for p in valid_params(cfg)]
    assert len(rows) == 1473
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == FACTS_TABLE_SHA256


# ---------------------------------------------------------------- congruence

def test_solve_congruence_zero():
    frm = BilinearForm.split(F7, "alternating", 4)
    A = Matrix.from_ints(F7, [[1, 0, 0, 1], [0, 1, 1, 0]])
    B = solve_congruence(Matrix.zeros(F7, 2, 2), A, frm)
    assert B == Matrix.zeros(F7, 2, 4)


def test_solve_congruence_alternating_example():
    frm = BilinearForm.split(F7, "alternating", 4)
    A = Matrix.from_ints(F7, [[1, 1, 0, 0], [0, 0, 1, 1]])  # a1+b1, a2+b2
    assert A.rank() == 2
    S = Matrix.from_ints(F7, [[0, 1], [-1, 0]])
    B = solve_congruence(S, A, frm)
    assert A @ frm.gram @ B.T + B @ frm.gram @ A.T == S


def test_solve_congruence_random_residuals():
    rng = random.Random(71)
    for field in (F7, F11, Q):
        for kind, f in (("alternating", 4), ("alternating", 6), ("symmetric", 5), ("symmetric", 4)):
            frm = BilinearForm.split(field, kind, f)
            for _ in range(60):
                a = rng.randrange(1, min(4, f) + 1)
                while True:
                    A = random_matrix(field, a, f, rng)
                    if A.rank() == a:
                        break
                S = random_matrix(field, a, a, rng)
                if kind == "symmetric":
                    S = S + S.T
                else:
                    S = S - S.T
                B = solve_congruence(S, A, frm)
                assert A @ frm.gram @ B.T + B @ frm.gram @ A.T == S
    with pytest.raises(SymmetryMismatch):
        solve_congruence(
            Matrix.from_ints(F7, [[1, 0], [0, 0]]),
            Matrix.from_ints(F7, [[1, 0, 0, 0], [0, 1, 0, 0]]),
            BilinearForm.split(F7, "alternating", 4),
        )


# ---------------------------------------------------------------- lie algebra / sampling

def test_equal_forms_share_their_bases():
    # both bases are kept per form by functools.cache, not on the object
    for kind, gram in (("symmetric", Matrix.identity(F7, 4)), ("alternating", None)):
        a, b = (BilinearForm(kind, gram) if gram else BilinearForm.split(F7, kind, 4) for _ in range(2))
        assert a is not b
        assert a.hyperbolic_basis() is b.hyperbolic_basis() and a.lie_basis() is b.lie_basis()
        assert not {"_hyperbolic", "_lie"} & set(vars(a))


def test_lie_basis_dimensions_and_property():
    frm = BilinearForm.split(F7, "alternating", 4)
    basis = frm.lie_basis()
    assert len(basis) == 4 * 5 // 2
    for b in basis:
        assert b.T @ frm.gram + frm.gram @ b == Matrix.zeros(F7, 4, 4)

    frm3 = BilinearForm.split(F7, "symmetric", 3)
    basis3 = frm3.lie_basis()
    assert len(basis3) == 3 * 2 // 2
    for b in basis3:
        assert b.T @ frm3.gram + frm3.gram @ b == Matrix.zeros(F7, 3, 3)


def _lie_basis_by_kernel(form):
    """Oracle: the f^2 x f^2 linear system b^t K + K b = 0 solved by
    elimination, as the closed-form basis replaced."""
    F, f, K = form.field, form.f, form.gram.data
    rows = []
    for r in range(f):
        for s in range(f):
            row = [F.zero] * (f * f)
            for t in range(f):
                # (b^t K)_{rs} takes K_{ts} from b_{tr}, (K b)_{rs} takes K_{rt} from b_{ts}
                row[t * f + r] = F.add(row[t * f + r], K[t][s])
                row[t * f + s] = F.add(row[t * f + s], K[r][t])
            rows.append(row)
    return [tuple(vec) for vec in Matrix(F, rows, f * f, f * f).kernel_basis()]


@pytest.mark.parametrize("F", [F7, F49, Q], ids=["F7", "F49", "Q"])
@pytest.mark.parametrize("kind", ["symmetric", "alternating"])
def test_lie_basis_spans_the_kernel_oracle(F, kind):
    rng = random.Random(41)
    forms = [BilinearForm.split(F, kind, f) for f in (4, 6) + ((3, 5) if kind == "symmetric" else ())]
    if kind == "symmetric":
        forms += [BilinearForm(kind, Matrix.identity(F, f)) for f in (3, 4)]
    forms += random_forms(F, kind, 4, rng)
    for form in forms:
        f = form.f
        basis = [b.flat() for b in form.lie_basis()]
        oracle = _lie_basis_by_kernel(form)
        dim = f * (f - 1) // 2 if kind == "symmetric" else f * (f + 1) // 2
        assert len(basis) == len(oracle) == dim
        rank = Matrix(F, basis, dim, f * f).rank()
        joint = Matrix(F, basis + oracle, 2 * dim, f * f).rank()
        assert rank == joint == dim, form.gram


def test_random_isometry_properties():
    rng = random.Random(29)
    forms = [BilinearForm.split(field, kind, f)
             for field in (F5, F7, Q)
             for kind, f in (("alternating", 4), ("symmetric", 4), ("symmetric", 5))]
    forms += [BilinearForm("symmetric", Matrix.identity(field, f)) for field in (F5, F7) for f in (3, 4)]
    forms += [frm for field in (F7, Q) for frm in random_forms(field, "alternating", 2, rng)]
    for frm in forms:
        field = frm.field
        for seed in range(10):
            stats = {}
            B = random_isometry(frm, seed=seed, stats=stats)
            assert B.T @ frm.gram @ B == frm.gram
            assert B.det() == field.one
            assert not stats["fallback"]


@pytest.mark.parametrize(
    "kind,f,p,order",
    [
        ("symmetric", 3, 3, 24),     # |SO(3, q)| = q (q^2 - 1)
        ("symmetric", 3, 5, 120),
        ("symmetric", 3, 7, 336),
        ("alternating", 2, 5, 120),  # |Sp(2, q)| = |SL(2, q)| = q (q^2 - 1)
        ("symmetric", 4, 3, 576),    # split |SO+(4, q)| = q^2 (q^2 - 1)^2
    ],
)
def test_random_isometry_reaches_the_whole_group(kind, f, p, order):
    # oracle: the closed-form group order; every distinct draw is checked
    # to be a special isometry, so reaching the order means every element
    F = field_create("prime", p)
    frm = BilinearForm.split(F, kind, f)
    rng = random.Random(order)
    seen = set()
    for _ in range(8000):
        B = random_isometry(frm, rng=rng)
        if B.data not in seen:
            assert B.T @ frm.gram @ B == frm.gram and B.det() == F.one
            seen.add(B.data)
            if len(seen) == order:
                break
    assert len(seen) == order


def test_random_orbit_point_classifier_sweeps():
    alt = split_config(2, 4, "alternating", F5)
    assert random_orbit_point(OrbitParams(0, 0), alt, seed=1) == Matrix.zeros(F5, 2, 4)
    for i in range(500):
        pt = random_orbit_point(OrbitParams(2, 0), alt, seed=i)
        assert classify(pt, alt) == OrbitParams(2, 0)
    sym = split_config(2, 4, "symmetric", F5)
    for i in range(500):
        pt = random_orbit_point(OrbitParams(2, 0, "-"), sym, seed=i)
        assert classify(pt, sym) == OrbitParams(2, 0, "-")


def test_classify_invariance_with_sign():
    rng = random.Random(5)
    from isodet.linalg import random_invertible

    for cfg in (split_config(2, 4, "alternating", F7), split_config(2, 4, "symmetric", F7)):
        for p in valid_params(cfg):
            rep = representative(p, cfg)
            for _ in range(50):
                a = random_invertible(F7, cfg.e, rng)
                b = random_isometry(cfg.form, rng=rng)
                assert classify(a @ rep @ b.T, cfg) == p


def test_sign_flips_under_improper_swap():
    cfg = split_config(2, 4, "symmetric", F5)
    swap = hyperbolic_swap(cfg.form)
    assert swap.det() == F5.neg(F5.one)
    assert swap.T @ cfg.form.gram @ swap == cfg.form.gram
    for i in range(100):
        for sign in "+-":
            pt = random_orbit_point(OrbitParams(2, 0, sign), cfg, seed=i)
            flipped = classify(pt @ swap.T, cfg)
            assert flipped.r1 == 2 and flipped.r2 == 0
            assert flipped.sign != sign


def test_hyperbolic_swap_exchanges_the_first_pair_on_random_grams():
    # oracle: the swap's action on the hyperbolic basis itself
    rng = random.Random(13)
    for F in (F7, F25, Q):
        for frm in random_forms(F, "symmetric", 8, rng):
            hb = frm.hyperbolic_basis()
            if not hb.pairs:
                continue
            swap = hyperbolic_swap(frm)

            def image(v):
                return tuple(row[0] for row in (swap @ Matrix(F, [[x] for x in v], frm.f, 1)).data)

            (a1, b1), rest = hb.pairs[0], hb.pairs[1:]
            assert image(a1) == b1 and image(b1) == a1
            for v in [x for pair in rest for x in pair] + list(hb.anisotropic):
                assert image(v) == v
            assert swap.det() == F.neg(F.one)
            assert swap.T @ frm.gram @ swap == frm.gram


F3 = field_create("prime", 3)
F9 = field_create("quadratic-extension", 3)


def _stream_configs():
    """Sym and alt configs over F_3, F_7, F_9 and Q on the split,
    identity and diag(1,1,1,2) Grams, with e = 2, 3."""
    out = []
    for field in (F3, F7, F9, Q):
        diag = Matrix.from_ints(field, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
        for e in (2, 3):
            out += [split_config(e, f, "symmetric", field) for f in (3, 4)]
            out.append(split_config(e, 4, "alternating", field))
            out += [SpaceConfig(e, 4, field, BilinearForm("symmetric", gram))
                    for gram in (Matrix.identity(field, 4), diag)]
    return out


@pytest.mark.parametrize("cfg", _stream_configs(), ids=lambda c: f"{c.kind[:3]}-e{c.e}f{c.f}-{c.field.descriptor()}-"
                         f"{'split' if c.form.is_split_standard() else c.form.gram.data[3][3]}")
def test_random_orbit_point_follows_its_draw_stream(cfg):
    # oracle: the point is A Phi B^t with A and then B drawn from one
    # random.Random(seed), in that order: A is random_matrix redrawn while
    # its determinant is zero, B the public random_isometry
    def invertible(rng):
        while True:
            a = random_matrix(cfg.field, cfg.e, cfg.e, rng)
            if a.det() != cfg.field.zero:
                return a

    for p in valid_params(cfg):
        for s in (0, 1, 5, "7:x", f"3:{p}:2"):
            try:
                expected = representative(p, cfg)
            except StratumUnavailable as exc:
                with pytest.raises(type(exc)):
                    random_orbit_point(p, cfg, seed=s)
                continue
            rng = random.Random(s)
            a = invertible(rng)
            b = random_isometry(cfg.form, rng=rng)
            assert random_orbit_point(p, cfg, seed=s) == a @ expected @ b.T, (p, s)


def test_random_isometry_stream_is_pinned():
    # the matrices and draw counts recorded before random_isometry was
    # rebuilt on row maps; the oracle above compares points against it
    digest = hashlib.sha256()
    for frm in dict.fromkeys(c.form for c in _stream_configs()):
        for s in range(5):
            stats = {}
            digest.update(f"{random_isometry(frm, seed=s, stats=stats)!r} {stats}".encode())
    assert digest.hexdigest() == "e9b8c8a28fe693ae218145557a341c9b341e9008b9a2617045f78e0883255fbd"


def test_reflection_cache_is_kept_only_over_small_spaces():
    # F_49^6 has 1.4e10 vectors and Q infinitely many: draws seldom repeat,
    # so no reflection is kept
    for frm in (BilinearForm.split(F49, "symmetric", 6), BilinearForm.split(Q, "symmetric", 4)):
        for s in range(3):
            random_isometry(frm, seed=s)
        assert frm._reflections == {}
    # the spaces of the exhaustive checks, F_7^3 and F_3^4: each vector is
    # kept at most once
    for F, f in ((F7, 3), (F3, 4)):
        small = BilinearForm.split(F, "symmetric", f)
        for s in range(40):
            random_isometry(small, seed=s)
        assert 0 < len(small._reflections) <= F.order ** f


def test_representative_rows_are_kept_once_per_stratum_and_form():
    # equal forms share them, whatever e, so a split form built per
    # configuration derives each stratum's rows once
    params = OrbitParams(2, 1)
    rows = forms_orbits._representative_rows(params, split_config(2, 4, "symmetric", F7).form)
    assert forms_orbits._representative_rows(params, split_config(3, 4, "symmetric", F7).form) is rows
    assert representative(params, split_config(3, 4, "symmetric", F7)).data[:2] == rows
    assert not hasattr(BilinearForm.split(F7, "symmetric", 4), "_reps")


def test_value_types_behave_as_frozen_records():
    # the contract of the frozen dataclasses they replaced: equal and
    # hashed by class and fields, shown by fields, never reassigned
    p = OrbitParams(2, 0, "+")
    assert p == OrbitParams(2, 0, "+") != OrbitParams(2, 0, "-")
    assert OrbitParams(1, 1) == OrbitParams(1, 1, None) and p != (2, 0, "+")
    assert hash(p) == hash((2, 0, "+"))
    assert repr(p) == "OrbitParams(r1=2, r2=0, sign='+')"
    with pytest.raises(AttributeError):
        p.r1 = 3
    with pytest.raises(TypeError):
        OrbitParams(1)
    F5 = field_create("prime", 5)
    assert split_config(2, 4, "symmetric", F5) == split_config(2, 4, "symmetric", F5)
    with pytest.raises(InvalidForm):
        SpaceConfig(0, 4, F5, BilinearForm.split(F5, "symmetric", 4))
    assert facts(p, split_config(2, 4, "symmetric", F5)).to_json() == {
        "dim": 5, "codim": 3, "normal": True, "cohen_macaulay": "yes", "rational_singularities_char0": True,
        "gorenstein": "unknown", "strongly_f_regular": "yes",
    }


@pytest.mark.parametrize("field", [field_create("prime", 3), F5, F7, field_create("quadratic-extension", 3)],
                         ids=["F3", "F5", "F7", "F9"])
def test_find_isotropic_on_diagonal_ternary_forms(field):
    # every non-degenerate ternary form over F_q is isotropic, and the
    # search over the three given vectors finds a non-zero isotropic one
    rng = random.Random(f"isotropic:{field.order}")
    units = [tuple(field.one if i == j else field.zero for j in range(3)) for i in range(3)]
    nonzero = [x for x in field.elements() if x != field.zero]
    for _ in range(25):
        d = [rng.choice(nonzero) for _ in range(3)]
        gram = Matrix(field, [[d[i] if i == j else field.zero for j in range(3)] for i in range(3)])
        form = BilinearForm("symmetric", gram)
        v = _find_isotropic(form, units)
        assert v is not None and any(x != field.zero for x in v), d
        assert form.beta(v, v) == field.zero, (d, v)
