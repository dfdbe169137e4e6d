import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chordbasis.budget import Budget
from chordbasis.enumeration import enumerate_connected
from chordbasis.errors import BudgetExceededError, ChordBasisError
from chordbasis.exactla import (
    ExactMatrix,
    assemble,
    back_substitute,
    echelon_form,
    express_pivots,
    pivot_columns,
    rank_modular,
    random_prime,
    rref,
    rref_dense,
)
from chordbasis.relations import generate_relations, relation_classes


def matrix_from_dense(rows):
    ncols = len(rows[0]) if rows else 0
    return assemble([{c: v for c, v in enumerate(r) if v} for r in rows], ncols)


def test_identity_is_its_own_rref():
    mat = matrix_from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    res = rref(mat)
    assert res.pivots == (0, 1, 2)
    assert res.rank == 3
    assert res.matrix.rows == mat.rows


def test_dependent_rows_collapse():
    mat = matrix_from_dense([[1, 1], [2, 2]])
    res = rref(mat)
    assert res.rank == 1
    assert res.matrix.rows == (((0, Fraction(1)), (1, Fraction(1))),)


def test_three_chord_relation_matrix_rank():
    ds = enumerate_connected(1, 3)
    mat = assemble(generate_relations(ds), len(ds))
    assert rref(mat).rank == 2


def test_assemble_drops_empty_rows_and_validates():
    mat = assemble([{}, {0: 1, 3: -1}], 4)
    assert mat.nrows == 1
    with pytest.raises(ChordBasisError):
        assemble([{5: 1}], 4)


def test_assemble_keeps_relation_coefficients_integer():
    ds = enumerate_connected(2, 3)
    mat = assemble(generate_relations(ds), len(ds))
    assert mat.nrows > 0
    assert all(type(v) is int for row in mat.rows for _, v in row)


def test_dense_oracle_returns_fractions_on_integer_matrix():
    mat = ExactMatrix((((0, 2), (1, 3)), ((0, 4), (2, 1)), ((1, 5), (2, -7))), 3)
    dense = rref_dense(mat)
    assert all(type(v) is Fraction for row in dense.matrix.rows for _, v in row)
    assert dense == rref(mat)


def test_assemble_keeps_duplicates():
    mat = assemble([{0: 1, 1: -1}, {0: 1, 1: -1}], 2)
    assert mat.nrows == 1  # the repeat collapses to one row
    assert rref(mat).rank == 1


def test_assemble_distinct_keeps_the_first_row_up_to_sign():
    rows = [{}, {0: -1, 1: 1}, {0: 1, 1: -1}, {0: 1, 2: 2}, {0: -1, 1: 1}]
    mat = assemble(rows, 3)
    assert mat.rows == (((0, -1), (1, 1)), ((0, 1), (2, 2)))
    every_row = ExactMatrix(tuple(tuple(sorted(r.items())) for r in rows if r), 3)
    assert rref(mat) == rref(every_row)


def test_express_pivots_identity():
    res = rref(matrix_from_dense([[1, 0], [0, 1]]))
    exprs = express_pivots(res)
    assert exprs == {0: (), 1: ()}


def test_express_pivots_single_row():
    res = rref(matrix_from_dense([[1, -1]]))
    assert express_pivots(res) == {0: ((1, Fraction(1)),)}


def test_express_pivots_rank_zero():
    res = rref(ExactMatrix((), 3))
    assert express_pivots(res) == {}
    assert res.rank == 0


def test_substituting_expressions_annihilates_rows():
    rng = random.Random(7)
    for _ in range(30):
        rows = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(5)]
        mat = matrix_from_dense(rows)
        exprs = express_pivots(rref(mat))
        for row in rows:
            # substitute x_p = sum expr_q x_q into the row; the result must
            # vanish identically as a vector over the non-pivot columns
            acc = {}
            for c, v in enumerate(row):
                if not v:
                    continue
                if c in exprs:
                    for q, coef in exprs[c]:
                        acc[q] = acc.get(q, Fraction(0)) + v * coef
                else:
                    acc[c] = acc.get(c, Fraction(0)) + v
            assert all(value == 0 for value in acc.values())


@st.composite
def sparse_matrices(draw):
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 8))
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if draw(st.booleans()):
                v = draw(st.integers(-5, 5))
                if v:
                    row[c] = v
        rows.append(row)
    return assemble(rows, ncols)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_sparse_matches_dense(mat):
    a = rref(mat)
    b = rref_dense(mat)
    assert a.pivots == b.pivots
    assert a.matrix.rows == b.matrix.rows


@st.composite
def short_row_matrices(draw):
    """Wider sparse matrices whose rows mostly have one or two terms, as
    relation matrices do, with a few longer rows mixed in."""
    ncols = draw(st.integers(1, 14))
    rows = []
    for _ in range(draw(st.integers(1, 16))):
        size = min(ncols, draw(st.sampled_from([1, 2, 2, 2, 3, 4])))
        cols = draw(st.lists(st.integers(0, ncols - 1), min_size=size,
                             max_size=size, unique=True))
        rows.append({c: draw(st.sampled_from([-2, -1, 1, 1, 2, 3])) for c in cols})
    return assemble(rows, ncols)


@settings(max_examples=200, deadline=None)
@given(short_row_matrices())
def test_rref_of_short_rows_matches_dense(mat):
    assert rref(mat) == rref_dense(mat)
    assert back_substitute(echelon_form(mat), mat.ncols) == rref(mat)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(), st.integers(0, 2**32))
def test_row_scaling_leaves_rref_unchanged(mat, seed):
    rng = random.Random(seed)
    scaled_rows = []
    for row in mat.rows:
        k = Fraction(rng.choice([1, 2, 3, 5, -1, -2]), rng.choice([1, 2, 3]))
        scaled_rows.append(tuple((c, v * k) for c, v in row))
    scaled = ExactMatrix(tuple(scaled_rows), mat.ncols)
    assert rref(scaled) == rref(mat)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(), st.integers(0, 2**32))
def test_row_order_leaves_rref_unchanged(mat, seed):
    rng = random.Random(seed)
    rows = list(mat.rows)
    rng.shuffle(rows)
    assert rref(ExactMatrix(tuple(rows), mat.ncols)) == rref(mat)


@settings(max_examples=80, deadline=None)
@given(sparse_matrices(), st.integers(0, 2**32))
def test_modular_rank_agrees(mat, seed):
    prime = random_prime(62, random.Random(seed))
    assert rank_modular(mat, prime) == rref(mat).rank


def test_pivot_columns_match_full_rref():
    rng = random.Random(13)
    for _ in range(40):
        rows = [[rng.randint(-2, 2) for _ in range(7)] for _ in range(6)]
        mat = matrix_from_dense(rows)
        assert pivot_columns(mat) == rref(mat).pivots


def test_random_prime_is_large_and_odd():
    p = random_prime(62, random.Random(1))
    assert p % 2 == 1 and p.bit_length() == 62


def test_budget_cells_error():
    mat = matrix_from_dense([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(BudgetExceededError):
        rref(mat, budget=Budget(max_matrix_cells=4))
    # the forward-only path checks the same cap
    with pytest.raises(BudgetExceededError):
        pivot_columns(mat, budget=Budget(max_matrix_cells=1))


def test_back_substitution_stops_on_a_spent_time_budget():
    echelon = echelon_form(matrix_from_dense([[1, 2, 3], [0, 1, 1]]))
    assert back_substitute(echelon, 3).rank == 2
    with pytest.raises(BudgetExceededError):
        back_substitute(echelon, 3, Budget(time_budget=1e-9))


def test_pivot_tie_goes_to_the_row_reaching_furthest_right():
    # two-term rows with one leading column: the pivot is the one whose
    # other entry lies furthest right, whatever the row order
    rows = [{0: 1, 1: 1}, {0: 1, 3: -1}, {0: 2, 2: 1}, {1: 1, 2: 1, 3: 1}]
    for order in (rows, rows[::-1]):
        echelon = echelon_form(assemble(order, 4))
        assert echelon[0] == (0, {0: 1, 3: -1})
        assert back_substitute(echelon, 4) == rref(assemble(rows, 4))


def test_modular_rank_equals_the_exact_rank_at_connected_1_6():
    # buckets sorted as the exact pass sorts them; unsorted, this rank took
    # about five times as long as the exact one
    ds = enumerate_connected(1, 6)
    mat = assemble(relation_classes(ds), len(ds))
    rank = len(echelon_form(mat))
    assert rank == 883
    assert rank_modular(mat, random_prime(62, random.Random(6))) == rank
