import random
from itertools import combinations, permutations

import pytest

from isodet.errors import (
    IndexOutOfRange,
    NonSquare,
    NotSkewSymmetric,
    OddDimension,
    RankDeficient,
    SizeMismatch,
)
from isodet.fields import field_create
from isodet.linalg import Matrix, echelon, random_invertible, random_matrix

F5 = field_create("prime", 5)
F7 = field_create("prime", 7)
F11 = field_create("prime", 11)
F49 = field_create("quadratic-extension", 7)
Q = field_create("rationals")

FIELDS = [F7, F11, F49, Q]


def det_cofactor(m: Matrix):
    """Independent determinant oracle: Leibniz expansion."""
    F = m.field
    n = m.rows
    total = F.zero
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        prod = F.one
        for i in range(n):
            prod = F.mul(prod, m.data[i][perm[i]])
        total = F.add(total, prod) if inv % 2 == 0 else F.sub(total, prod)
    return total


def random_skew(field, n, rng):
    z = field.zero
    grid = [[z] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = field.random(rng)
            grid[i][j] = v
            grid[j][i] = field.neg(v)
    return Matrix(field, grid)


def test_rank_examples():
    assert Matrix.zeros(F5, 2, 3).rank() == 0
    assert Matrix.identity(F5, 3).rank() == 3
    m = Matrix.from_ints(Q, [[1, 2, 3], [2, 4, 6]])
    assert m.rank() == 1  # second row is twice the first


def test_rank_transpose_and_invariance():
    rng = random.Random(11)
    for F in FIELDS:
        for _ in range(3):
            m = random_matrix(F, 3, 5, rng)
            r = m.rank()
            assert m.T.rank() == r
            current = m
            for _ in range(100):
                if rng.random() < 0.5:
                    current = random_invertible(F, 3, rng) @ current
                else:
                    current = current @ random_invertible(F, 5, rng)
                assert current.rank() == r


def test_det_examples():
    assert Matrix.identity(F5, 4).det() == F5.one
    swap = Matrix.from_ints(Q, [[0, 1], [1, 0]])
    assert swap.det() == Q.neg(Q.one)
    with pytest.raises(NonSquare):
        Matrix.zeros(F5, 2, 3).det()
    assert Matrix(F5, [], 0, 0).det() == F5.one


def test_det_matches_cofactor_oracle():
    rng = random.Random(23)
    for F in FIELDS:
        for n in (1, 2, 3, 4, 5):
            m = random_matrix(F, n, n, rng)
            assert m.det() == det_cofactor(m)


def test_det_multiplicative():
    rng = random.Random(7)
    for F in FIELDS:
        for _ in range(50):
            n = rng.randrange(1, 5)
            a = random_matrix(F, n, n, rng)
            b = random_matrix(F, n, n, rng)
            assert (a @ b).det() == F.mul(a.det(), b.det())


def standard_block_j(field, n):
    z, o = field.zero, field.one
    grid = [[z] * n for _ in range(n)]
    for i in range(0, n - 1, 2):
        grid[i][i + 1] = o
        grid[i + 1][i] = field.neg(o)
    return Matrix(field, grid)


def test_pfaffian_examples():
    a = F7.from_int(3)
    m = Matrix(F7, [[F7.zero, a], [F7.neg(a), F7.zero]])
    assert m.pfaffian() == a
    assert standard_block_j(F7, 4).pfaffian() == F7.one
    assert Matrix(F7, [], 0, 0).pfaffian() == F7.one
    with pytest.raises(OddDimension):
        Matrix.zeros(F7, 3, 3).pfaffian()
    with pytest.raises(NonSquare):
        Matrix.zeros(F7, 2, 4).pfaffian()
    with pytest.raises(NotSkewSymmetric):
        Matrix.identity(F7, 2).pfaffian()


def test_pfaffian_squares_to_det():
    rng = random.Random(31)
    for F in FIELDS:
        for n in (2, 4, 6, 8):
            for _ in range(25):
                m = random_skew(F, n, rng)
                pf = m.pfaffian()
                assert F.mul(pf, pf) == m.det()


def test_minor_examples():
    m = Matrix.identity(F5, 3)
    assert m.minor(range(3), range(3)) == m.det()
    assert m.minor([0], [0]) == F5.one
    m2 = Matrix.from_ints(Q, [[1, 2, 3], [4, 5, 6]])
    # hand 2x2: 2*6 - 3*5 = -3
    assert m2.minor([0, 1], [1, 2]) == Q.from_int(-3)
    with pytest.raises(SizeMismatch):
        m2.minor([0], [0, 1])
    with pytest.raises(IndexOutOfRange):
        m2.minor([0, 2], [0, 1])
    with pytest.raises(IndexOutOfRange):
        m2.minor([1, 0], [0, 1])


def test_minor_exhaustive_against_submatrix_copy():
    rng = random.Random(17)
    for _ in range(3):
        m = random_matrix(F7, 4, 6, rng)
        for k in range(1, 5):
            for T in combinations(range(4), k):
                for S in combinations(range(6), k):
                    expected = det_cofactor(m.submatrix(T, S))
                    assert m.minor(T, S) == expected


def test_left_inverse_examples():
    ident = Matrix.identity(F7, 3)
    assert ident.left_inverse() == ident
    m = Matrix.from_ints(Q, [[1], [0]])
    y = m.left_inverse()
    assert y @ m == Matrix.identity(Q, 1)
    rng = random.Random(3)
    for F in FIELDS:
        for _ in range(20):
            while True:
                m = random_matrix(F, 5, 3, rng)
                if m.rank() == 3:
                    break
            y = m.left_inverse()
            assert y @ m == Matrix.identity(F, 3)
    with pytest.raises(RankDeficient):
        Matrix.zeros(F7, 3, 2).left_inverse()


def test_left_inverse_deterministic():
    rng = random.Random(9)
    m = random_matrix(F7, 5, 3, rng)
    if m.rank() < 3:
        m = Matrix.identity(F7, 3).vstack(Matrix.zeros(F7, 2, 3))
    assert m.left_inverse() == m.left_inverse()


def test_kernel_examples():
    assert Matrix.identity(F5, 3).kernel_basis() == []
    assert len(Matrix.zeros(F5, 2, 3).kernel_basis()) == 3
    m = Matrix.from_ints(Q, [[1, 1, 0]])
    basis = m.kernel_basis()
    assert len(basis) == 2
    for v in basis:
        col = Matrix(Q, [[x] for x in v], 3, 1)
        assert m @ col == Matrix.zeros(Q, 1, 1)


def test_kernel_count_and_exactness():
    rng = random.Random(13)
    for F in FIELDS:
        for _ in range(20):
            m = random_matrix(F, 3, 5, rng)
            basis = m.kernel_basis()
            assert len(basis) == 5 - m.rank()
            for v in basis:
                col = Matrix(F, [[x] for x in v], 5, 1)
                assert m @ col == Matrix.zeros(F, 3, 1)
            # kernel vectors are independent
            if basis:
                assert Matrix(F, basis).rank() == len(basis)


def test_inverse():
    rng = random.Random(19)
    for F in FIELDS:
        for n in (1, 2, 4):
            m = random_invertible(F, n, rng)
            assert m @ m.inverse() == Matrix.identity(F, n)
    with pytest.raises(RankDeficient):
        Matrix.zeros(F7, 2, 2).inverse()


def test_json_roundtrip():
    rng = random.Random(29)
    for F in FIELDS:
        m = random_matrix(F, 2, 3, rng)
        assert Matrix.from_json(m.to_json()) == m
    obj = {"field": {"kind": "rationals"}, "rows": [["1", "2"], ["0", "4/3"]]}
    m = Matrix.from_json(obj)
    assert m[1, 1] == Q.parse("4/3")
    assert m.to_json() == obj


def test_zero_dimensional_edges():
    m = Matrix(F5, [], 0, 3)
    assert m.rank() == 0
    assert len(m.kernel_basis()) == 3
    n = Matrix(F5, [[], []], 2, 0)
    assert n.rank() == 0
    assert n.left_inverse().rows == 0


def test_transpose_of_empty_shapes():
    # the transpose of a 0-row matrix is cols empty rows, and back
    m = Matrix.zeros(F5, 0, 3)
    assert m.T == Matrix(F5, [[], [], []], 3, 0)
    assert m.T.T == m
    n = Matrix.zeros(F5, 2, 0)
    assert n.T == Matrix(F5, [], 0, 2)
    assert n.T.T == n


# ---------------------------------------------------------------- sympy oracle
# rank, det, inverse, null space and left-inverse row choice of the one
# elimination kernel against sympy's DomainMatrix over GF(7) and QQ.

def _sympy_case(F):
    sympy_matrices = pytest.importorskip("sympy.polys.matrices")
    from fractions import Fraction

    from sympy import GF, QQ

    if F == Q:
        K = QQ
        to_dom = lambda v: QQ(v.numerator, v.denominator)
        from_dom = lambda x: Fraction(int(x.numerator), int(x.denominator))
    else:
        K = GF(7)
        to_dom = K
        from_dom = lambda x: int(x) % 7

    def dm(m: Matrix):
        return sympy_matrices.DomainMatrix([[to_dom(v) for v in row] for row in m.data], (m.rows, m.cols), K)

    def back(d) -> list:
        return [[from_dom(x) for x in row] for row in d.to_list()]

    return dm, back, from_dom


def _oracle_matrices(F, rng):
    """Square, wide, tall, singular (a product through a narrower
    middle) and 0-row matrices."""
    shapes = [(3, 3), (4, 4), (2, 5), (3, 6), (5, 2), (6, 3)]
    out = [random_matrix(F, r, c, rng) for r, c in shapes for _ in range(3)]
    for n, k in ((3, 1), (4, 2), (5, 3)):
        out.append(random_matrix(F, n, k, rng) @ random_matrix(F, k, n, rng))
        out.append(random_matrix(F, n + 1, k, rng) @ random_matrix(F, k, n, rng))
    out += [Matrix(F, [], 0, 0), Matrix(F, [], 0, 3), Matrix.zeros(F, 3, 3)]
    return out


@pytest.mark.parametrize("F", [F7, Q], ids=["GF7", "QQ"])
def test_kernel_against_sympy(F):
    dm, back, scalar = _sympy_case(F)
    rng = random.Random(2024)
    for m in _oracle_matrices(F, rng):
        d = dm(m)
        rank = d.rank()
        assert m.rank() == rank, m
        assert m @ m.T == Matrix(F, back(d * d.transpose()), m.rows, m.rows), m
        assert m + m == Matrix(F, back(d + d), m.rows, m.cols), m
        assert m - m == Matrix(F, back(d - d), m.rows, m.cols), m
        rows, (reduced, pivots) = m._mutable(), d.rref()
        assert echelon(F, rows)[0] == list(pivots), m
        assert rows == back(reduced), m
        if m.rows == m.cols:
            assert m.det() == scalar(d.det()), m
            if rank == m.rows:
                assert m.inverse() == Matrix(F, back(d.inv()), m.rows, m.cols)
            else:
                with pytest.raises(RankDeficient):
                    m.inverse()
        basis = m.kernel_basis()
        assert len(basis) == m.cols - rank == d.nullspace().shape[0]
        if basis:
            b = dm(Matrix(F, basis))
            assert b.rank() == len(basis)  # independent
            assert (d * b.transpose()).is_zero_matrix  # in the null space


@pytest.mark.parametrize("F", [F7, Q], ids=["GF7", "QQ"])
def test_left_inverse_rows_against_sympy(F):
    dm, back, _ = _sympy_case(F)
    rng = random.Random(7)
    tall = [random_matrix(F, r, c, rng) for r, c in ((3, 3), (5, 2), (6, 3), (4, 4)) for _ in range(3)]
    # rows 0 and 1 are dependent, so the first independent set skips row 1
    first = random_matrix(F, 1, 3, rng)
    tall.append(first.vstack(first.scale(F.from_int(2))).vstack(random_matrix(F, 3, 3, rng)))
    tall.append(random_matrix(F, 5, 2, rng) @ random_matrix(F, 2, 3, rng))  # rank 2 < 3 columns
    for m in tall:
        d = dm(m)
        if d.rank() < m.cols:
            with pytest.raises(RankDeficient):
                m.left_inverse()
            continue
        chosen = list(d.transpose().rref()[1])[: m.cols]
        y = m.left_inverse()
        used = sorted({i for row in y.data for i, v in enumerate(row) if v != F.zero})
        assert set(used) <= set(chosen)
        block = dm(m.submatrix(chosen, range(m.cols))).inv()
        assert y.submatrix(range(m.cols), chosen) == Matrix(F, back(block))
