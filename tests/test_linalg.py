"""Fraction-free row reduction on sparse rows: primitive rows, rank, membership."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tanfam.linalg as linalg
from tanfam.linalg import RowSpace, primitive_row


def test_primitive_row_divides_common_factor():
    assert primitive_row({0: 4, 1: 6, 2: -2}) == {0: 2, 1: 3, 2: -1}


def test_primitive_row_normalizes_leading_sign():
    assert primitive_row({0: -2, 1: 4}) == {0: 1, 1: -2}
    # the lead is the entry in the lowest column, whatever the insertion order
    assert primitive_row({2: 6, 1: -3}) == {1: 1, 2: -2}


def test_primitive_row_zero():
    assert primitive_row({}) == {}
    assert primitive_row({0: 0, 3: 0}) == {}
    assert primitive_row({0: 0, 2: -5}) == {2: 1}  # zero entries are dropped


def test_primitive_row_integer_fast_path():
    # zero entries, a negative lead and content 6 at once
    assert primitive_row({3: 0, 1: -12, 4: 18, 0: 0, 2: 6}) == {1: 2, 4: -3, 2: -1}
    assert primitive_row({5: 7, 2: 0}) == {5: 1}
    assert primitive_row({0: -1, 1: 1}) == {0: 1, 1: -1}
    assert primitive_row({0: 3, 2: -5}) == {0: 3, 2: -5}  # already primitive
    assert primitive_row({4: 0}) == {}
    big = 2**200 + 1
    assert primitive_row({0: -7 * big, 9: 14}) == {0: big, 9: -2}


def test_primitive_row_returns_a_new_dict():
    for row in ({0: 1, 1: 2}, {0: 2, 1: 4}, {0: -1}, {0: 0, 1: 1}):
        out = primitive_row(row)
        assert out is not row
        out[7] = 1
        assert 7 not in row
    row = {0: 1, 2: 3}
    space = RowSpace(3)
    assert space.add(row)
    row[1] = 5
    del row[2]
    assert space.canonical_matrix() == [[1, 0, 3]]
    assert not space.contains({1: 1})


def test_rowspace_rank_and_membership():
    space = RowSpace(3)
    assert space.add({0: 1, 2: 1})
    assert space.add({1: 1, 2: 1})
    assert not space.add({0: 1, 1: 1, 2: 2})  # dependent
    assert not space.add({})  # the zero row never enlarges the space
    assert space.rank == 2
    assert space.contains({0: 2, 1: -1, 2: 1})
    assert space.contains({})
    assert not space.contains({2: 1})


def test_rowspace_rejects_wrong_width():
    space = RowSpace(2)
    with pytest.raises(ValueError):
        space.add({2: 1})
    with pytest.raises(ValueError):
        space.add({-1: 1})
    with pytest.raises(ValueError):
        space.contains({0: 1, 5: 1})
    with pytest.raises(ValueError):
        RowSpace(0)


def test_canonical_matrix_is_reduced_and_order_independent():
    rows = [{0: 2, 1: 4}, {0: 1, 1: 1, 2: 1}, {1: 3, 2: -3}]
    a = RowSpace(3)
    b = RowSpace(3)
    for row in rows:
        a.add(row)
    for row in reversed(rows):
        b.add({col: row[col] for col in reversed(list(row))})
    assert a.rank == b.rank == 2
    assert a.canonical_matrix() == b.canonical_matrix() == [[1, 0, 2], [0, 1, -1]]
    # back-elimination: above and below every pivot the column is zero
    canon = a.canonical_matrix()
    pivots = a.pivot_columns()
    for i, col in enumerate(pivots):
        for k in range(len(canon)):
            if k != i:
                assert canon[k][col] == 0


def test_rowspace_copy_is_independent():
    space = RowSpace(2)
    space.add({0: 1})
    clone = space.copy()
    clone.add({1: 1})
    assert clone.rank == 2
    assert space.rank == 1
    assert not space.contains({1: 1})


def _space_of(width, rows):
    space = RowSpace(width)
    for row in rows:
        space.add(row)
    return space


def _rank(rows, width):
    return _space_of(width, rows).rank


def test_matrix_rank():
    assert _rank([], 3) == 0
    assert _rank([{}], 2) == 0
    assert _rank([{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1}], 2) == 2
    # Hilbert rows scaled to integers stay exact: full rank, reduced to the identity
    hilbert = RowSpace(4)
    for i in range(4):
        scale = lcm(*range(i + 1, i + 5))
        assert hilbert.add({j: scale // (i + j + 1) for j in range(4)})
    assert hilbert.rank == 4
    assert hilbert.canonical_matrix() == [
        [1 if j == i else 0 for j in range(4)] for i in range(4)
    ]


def _rows_of_width(width):
    return st.lists(
        st.dictionaries(
            st.integers(0, width - 1),
            st.integers(min_value=-5, max_value=5),
            max_size=width,
        ),
        max_size=8,
    )


_INTEGER_ROWS = st.integers(1, 7).flatmap(
    lambda width: st.tuples(st.just(width), _rows_of_width(width))
)


@settings(database=None, deadline=None, max_examples=100)
@given(_INTEGER_ROWS)
def test_reduced_rows_from_every_start_match_the_canonical_matrix(case):
    width, rows = case
    space = RowSpace(width)
    for row in rows:
        space.add(row)
    canon = space.canonical_matrix()
    pivots = space.pivot_columns()
    for start in range(width + 1):
        reduced = space.reduced_rows(start)
        assert list(reduced) == [col for col in pivots if col >= start]
        for col, row in reduced.items():
            assert row == {j: v for j, v in enumerate(canon[pivots.index(col)]) if v}
            assert min(row) == col


# (width, rows, rows added after the read, start read, add to a copy?)
_GROWN_SPACES = st.integers(1, 7).flatmap(
    lambda width: st.tuples(
        st.just(width),
        _rows_of_width(width),
        _rows_of_width(width),
        st.integers(0, width),
        st.booleans(),
    )
)


def _reduced_forms(space):
    starts = range(space.width + 1)
    return space.canonical_matrix(), [space.reduced_rows(start) for start in starts]


@settings(database=None, deadline=None, max_examples=100)
@given(_GROWN_SPACES)
@example((2, [{0: 1}], [{1: 1}], 0, False))
@example((2, [{0: 1}], [{1: 1}], 0, True))
def test_reduced_rows_read_before_rows_are_added_match_a_fresh_space(case):
    width, rows, more, read_start, on_copy = case
    space = _space_of(width, rows)
    space.reduced_rows(read_start)
    target = space.copy() if on_copy else space
    for row in more:
        target.add(row)
    assert _reduced_forms(target) == _reduced_forms(_space_of(width, rows + more))
    if on_copy:
        assert _reduced_forms(space) == _reduced_forms(_space_of(width, rows))


def _gauss_jordan(rows, width):
    """Reduced echelon rows of the span by dense Fraction elimination of
    every row, each made primitive, keyed by pivot."""
    matrix = [[Fraction(row.get(j, 0)) for j in range(width)] for row in rows]
    rank = 0
    for col in range(width):
        pick = next((i for i in range(rank, len(matrix)) if matrix[i][col]), None)
        if pick is None:
            continue
        matrix[rank], matrix[pick] = matrix[pick], matrix[rank]
        lead = matrix[rank][col]
        matrix[rank] = [value / lead for value in matrix[rank]]
        for i, row in enumerate(matrix):
            if i != rank and row[col]:
                factor = row[col]
                matrix[i] = [a - factor * b for a, b in zip(row, matrix[rank])]
        rank += 1
    reduced = {}
    for row in matrix[:rank]:
        denom = lcm(*(value.denominator for value in row))
        ints = [int(value * denom) for value in row]
        common = gcd(*ints)
        sparse = {j: value // common for j, value in enumerate(ints) if value}
        reduced[min(sparse)] = sparse
    return reduced


def _unit_heavy_rows(rng):
    """Width and integer rows of a random space whose reduced rows are
    mostly unit vectors; the others have entries in non-pivot columns.
    Each row mixes its target reduced row with later ones, so the
    stored echelon rows reach their reduced rows by cancellation."""
    width = rng.randint(6, 40)
    pivots = sorted(rng.sample(range(width), rng.randint(1, width - 1)))
    free = [c for c in range(width) if c not in pivots]
    targets = {}
    for p in pivots:
        target = {p: 1}
        later = [c for c in free if c > p]
        if later and rng.random() < 0.2:
            for c in rng.sample(later, rng.randint(1, min(3, len(later)))):
                target[c] = rng.choice([-3, -2, -1, 1, 2, 5])
        targets[p] = target

    def mix(p):
        row = {c: rng.choice([1, 2, -3]) * v for c, v in targets[p].items()}
        for q in rng.sample(pivots, min(3, len(pivots))):
            if q > p:
                m = rng.randint(-4, 4)
                for c, v in targets[q].items():
                    row[c] = row.get(c, 0) + m * v
        return row

    rows = [mix(p) for p in pivots]
    rows += [mix(rng.choice(pivots)) for _ in range(rng.randint(0, 3))]
    rng.shuffle(rows)
    return width, rows


def test_unit_rows_and_reduced_rows_match_full_elimination_from_every_start():
    seen = {"unit at once": 0, "unit by cancellation": 0, "non-pivot entries": 0}
    for seed in range(150):
        width, rows = _unit_heavy_rows(random.Random(seed))
        want = _gauss_jordan(rows, width)
        units = {col for col, row in want.items() if len(row) == 1}
        space = _space_of(width, rows)
        for col, stored in space._rows.items():
            if len(want[col]) > 1:
                seen["non-pivot entries"] += 1
            elif units.issuperset(stored):
                seen["unit at once"] += 1
            else:
                seen["unit by cancellation"] += 1
        # descending starts back-eliminate afresh each time; the second
        # pass reads them all from the cache of start 0
        for _ in range(2):
            for start in range(width, -1, -1):
                case = (seed, start)
                assert space.reduced_rows(start) == {
                    col: row for col, row in want.items() if col >= start
                }, case
                assert space.unit_columns(start) == {col for col in units if col >= start}, case
        assert space.canonical_matrix() == [
            [row.get(j, 0) for j in range(width)] for row in want.values()
        ], seed
        assert (space.rank, sorted(want)) == (len(want), space.pivot_columns())
    assert min(seen.values()) >= 20, seen
    assert seen["unit at once"] > seen["unit by cancellation"] + seen["non-pivot entries"]


def test_changing_what_a_read_returns_leaves_the_space_unchanged():
    space = _space_of(4, [{0: 1, 2: 3}, {1: 2, 2: 4}, {3: 5}])
    canon = space.canonical_matrix()
    rows = space.reduced_rows()
    assert canon == [[1, 0, 3, 0], [0, 1, 2, 0], [0, 0, 0, 1]]
    canon[0][0] = 7
    canon.pop()
    rows[0][2] = 9
    rows[3][0] = 1
    del rows[1]
    for read in (space.reduced_rows(2), space.reduced_rows(), space.reduced_rows(1)):
        read.clear()
    assert space.reduced_rows() == {0: {0: 1, 2: 3}, 1: {1: 1, 2: 2}, 3: {3: 1}}
    assert space.canonical_matrix() == [[1, 0, 3, 0], [0, 1, 2, 0], [0, 0, 0, 1]]
    assert space.unit_columns() == {3}
    assert space.contains({0: 1, 1: 1, 2: 5}) and not space.contains({2: 1})


def test_a_row_over_unit_columns_reduces_with_no_arithmetic(monkeypatch):
    space = _space_of(6, [{0: 2, 3: 4, 4: -6}, {1: 1, 2: 3, 5: 2}, {2: 5}, {3: 1}, {4: 7}])
    calls = []
    for name in ("_eliminate", "primitive_row"):

        def counted(*args, kernel=getattr(linalg, name), name=name):
            calls.append(name)
            return kernel(*args)

        monkeypatch.setattr(linalg, name, counted)
    assert space.reduced_rows() == {0: {0: 1}, 1: {1: 1, 5: 2}, 2: {2: 1}, 3: {3: 1}, 4: {4: 1}}
    # only row 1 has an entry outside the unit columns: one step and one rescaling
    assert calls == ["_eliminate", "primitive_row"]
    assert space.unit_columns() == {0, 2, 3, 4}
