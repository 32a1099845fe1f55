"""Every typed refusal of the library that a bad argument can reach, one
case each: the call raises its own ``IsodetError`` subclass, never a bare
``ValueError``, ``IndexError`` or a wrong answer."""

import pytest

from isodet import equations
from isodet.equations import MinorTable, Polynomial, StarOperator, poly_det, poly_pfaffian, star_operator
from isodet.errors import (
    ConsistencyCheckFailed,
    DimensionMismatch,
    ExponentOutOfRange,
    IndexOutOfRange,
    InsufficientWittIndex,
    InvalidForm,
    MalformedInput,
    NonSquare,
    OddDimension,
    SymmetryMismatch,
)
from isodet.fields import field_create
from isodet.forms_orbits import (
    BilinearForm,
    OrbitParams,
    SpaceConfig,
    hyperbolic_swap,
    representative,
    solve_congruence,
    split_config,
    tangent_dimension,
)
from isodet.linalg import Matrix

F5 = field_create("prime", 5)
F7 = field_create("prime", 7)
Q = field_create("rationals")


def _ints(*rows):
    return Matrix.from_ints(F5, rows)


def _x(nvars=2, i=0):
    return Polynomial.variable(F5, nvars, i)


def _solve(S, A):
    return solve_congruence(S, A, BilinearForm.split(F5, "symmetric", 4))


def _fake_star_not_an_eigenvector():
    # the ratio at the first non-zero reference minor is mu, but the
    # operator also sends that minor into another coordinate
    cfg = split_config(2, 4, "symmetric", F5)
    real = star_operator(cfg.form)
    v0 = [representative(OrbitParams(2, 0, "+"), cfg).minor((0, 1), S) for S in real.subsets]
    i0 = next(i for i, x in enumerate(v0) if x != F5.zero)
    n = len(real.subsets)
    columns = tuple(tuple((i, F5.one) for i in range(n) if i == j or (i, j) == ((i0 + 1) % n, i0))
                    for j in range(n))
    fake = StarOperator(F5, 4, real.subsets, columns, F5.one)
    return equations._reference_eigenvalue(fake, cfg)


CASES = [
    # linalg.py
    ("ragged-grid", DimensionMismatch, lambda: Matrix(F5, [[F5.one, F5.one], [F5.one]])),
    ("json-without-field", DimensionMismatch, lambda: Matrix.from_json({"rows": [["1"]]})),
    ("json-entry-not-a-string", MalformedInput, lambda: Matrix.from_json({"rows": [[1]]}, F5)),
    ("different-fields", DimensionMismatch, lambda: Matrix.identity(F5, 2) + Matrix.identity(F7, 2)),
    ("sum-of-two-shapes", DimensionMismatch, lambda: Matrix.identity(F5, 2) + Matrix.identity(F5, 3)),
    ("product-of-mismatched-shapes", DimensionMismatch, lambda: Matrix.zeros(F5, 2, 3) @ Matrix.zeros(F5, 2, 3)),
    ("vstack-of-two-widths", DimensionMismatch, lambda: Matrix.zeros(F5, 1, 2).vstack(Matrix.zeros(F5, 1, 3))),
    ("inverse-non-square", NonSquare, lambda: Matrix.zeros(F5, 2, 3).inverse()),
    # forms_orbits.py
    ("unknown-form-kind", InvalidForm, lambda: BilinearForm("hermitian", Matrix.identity(F5, 2))),
    ("non-square-gram", InvalidForm, lambda: BilinearForm("symmetric", Matrix.zeros(F5, 2, 3))),
    ("non-symmetric-gram", InvalidForm, lambda: BilinearForm("symmetric", _ints([1, 1], [0, 1]))),
    ("named-gram-without-f", InvalidForm, lambda: BilinearForm.from_json(F5, {"kind": "symmetric", "gram": "split"})),
    ("unknown-gram-name", InvalidForm,
     lambda: BilinearForm.from_json(F5, {"kind": "symmetric", "gram": "diagonal"}, 4)),
    ("form-of-another-f", InvalidForm, lambda: SpaceConfig(2, 4, F5, BilinearForm.split(F5, "symmetric", 3))),
    ("form-over-another-field", InvalidForm, lambda: SpaceConfig(2, 4, F5, BilinearForm.split(F7, "symmetric", 4))),
    ("congruence-operands-outside-the-space", DimensionMismatch,
     lambda: _solve(_ints([1]), _ints([1, 0, 0]))),
    ("congruence-S-of-the-wrong-size", DimensionMismatch,
     lambda: _solve(_ints([1, 0], [0, 1]), _ints([1, 0, 0, 0]))),
    ("congruence-non-symmetric-S", SymmetryMismatch,
     lambda: _solve(_ints([1, 1], [0, 1]), _ints([1, 0, 0, 0], [0, 1, 0, 0]))),
    ("tangent-of-another-shape", DimensionMismatch,
     lambda: tangent_dimension(Matrix.zeros(F5, 1, 4), split_config(2, 4, "symmetric", F5))),
    ("swap-on-alternating-form", InvalidForm, lambda: hyperbolic_swap(BilinearForm.split(F5, "alternating", 4))),
    ("swap-on-anisotropic-form", InsufficientWittIndex,
     lambda: hyperbolic_swap(BilinearForm("symmetric", Matrix.identity(Q, 3)))),
    # equations.py
    ("exponent-vector-of-wrong-length", DimensionMismatch, lambda: Polynomial(F5, 2, {(1,): F5.one})),
    ("variable-out-of-range", IndexOutOfRange, lambda: Polynomial.variable(F5, 2, 2)),
    ("arithmetic-across-rings", DimensionMismatch, lambda: _x(2) + _x(3)),
    ("evaluate-with-wrong-count", DimensionMismatch, lambda: _x().evaluate([F5.one])),
    ("minor-table-of-empty-grid", DimensionMismatch, lambda: MinorTable([])),
    ("minor-table-past-max-degree", ExponentOutOfRange,
     lambda: MinorTable([[Polynomial(F5, 1, {(200,): F5.one})] * 2] * 2)),
    ("det-of-empty-grid", DimensionMismatch, lambda: poly_det([])),
    ("pfaffian-of-odd-size", OddDimension, lambda: poly_pfaffian([[_x()]])),
    ("pfaffian-of-empty-grid", DimensionMismatch, lambda: poly_pfaffian([])),
    ("reference-not-an-eigenvector", ConsistencyCheckFailed, _fake_star_not_an_eigenvector),
]


@pytest.mark.parametrize("error,call", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_typed_refusal(error, call):
    with pytest.raises(error):
        call()
