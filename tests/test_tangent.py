"""Tangent-space builders: ranks, ideal blocks, sufficiency, miniversality.

The expensive assertions are cross-checked live against an independent
sympy implementation (helpers_oracle) that re-derives every generator
row from the germ's text form and ranks with sympy's exact linear
algebra.
"""

import gc
import random
from fractions import Fraction
from itertools import product

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_oracle import (
    MOND_FORMS,
    RIEGER_FORMS,
    parse_component,
    reduced_echelon,
    sympy_contains,
    sympy_contains_each,
    sympy_rank,
    tangent_rows,
    T,
    XI,
)
from tanfam.families import (
    classify,
    double_umbrella_form,
    family_from_invariants,
    fold_form,
    legendrian_parameterization,
    probe_branch_index,
)
from tanfam.jets import (
    SOURCE_VARS,
    TARGET_VARS,
    MapGerm,
    TruncatedPoly,
    monomial_basis,
    monomial_text,
)
from tanfam.linalg import RowSpace
from tanfam.tangent import (
    KIND_FIBERED,
    KIND_FULL,
    build_extended_tangent_space,
    build_reduced_tangent_space,
    contains_ideal_block,
    flatten_triple,
    jet_sufficiency_step,
    miniversality_check,
)

XI_P = TruncatedPoly.variable(SOURCE_VARS, "xi", 8)
T_P = TruncatedPoly.variable(SOURCE_VARS, "t", 8)
ZERO = TruncatedPoly.zero(SOURCE_VARS, 8)


def oracle_comps(germ):
    return [parse_component(text) for text in germ.to_texts()]


# ---------------------------------------------------------------------------
# construction basics


def test_order_resolution_and_validation():
    fold = fold_form(8)
    basis = build_extended_tangent_space(fold)  # defaults to cap - 1
    assert basis.order == 7
    with pytest.raises(ValueError):
        build_extended_tangent_space(fold, order=8)  # derivatives untrusted at cap
    with pytest.raises(ValueError):
        build_extended_tangent_space(fold, order=0)
    with pytest.raises(ValueError):
        build_extended_tangent_space(fold, order=3, kind="B")


def test_basis_bookkeeping():
    basis = build_extended_tangent_space(fold_form(8), order=3)
    assert basis.dimension == 3 * len(basis.monomials)
    assert basis.codimension == basis.dimension - basis.rank
    assert len(basis.provenance) == basis.rank
    verdict = basis.to_verdict()
    assert verdict["rank"] == basis.rank
    assert verdict["germ"] == ["1 xi", "1 t^2", "1 t"]
    label = basis.column_label(len(basis.monomials))  # first column of slot 2
    assert label == {"slot": 2, "monomial": "1"}


def test_generators_tagged():
    tags = build_extended_tangent_space(fold_form(8), 2).provenance
    assert any(tag.startswith(("dxi", "dt")) for tag in tags)  # source rows
    assert any("<-" in tag for tag in tags)  # pullback rows
    reduced_tags = build_reduced_tangent_space(fold_form(8), 2).provenance
    assert len(reduced_tags) < len(tags)  # fewer multipliers, smaller module


def _tags(text):
    return tuple(text.split(", "))


# the umbrella's independent source rows, the same in both extended kinds
_UMBRELLA_SOURCE_TAGS_4 = _tags(
    "dxi * 1, dxi * xi, dxi * t, dxi * xi^2, dxi * xi t, dxi * t^2, dxi * xi^3, "
    "dxi * xi^2 t, dxi * xi t^2, dxi * t^3, dxi * xi^4, dxi * xi^3 t, "
    "dxi * xi^2 t^2, dxi * xi t^3, dxi * t^4, dt * 1, dt * xi, dt * t, "
    "dt * xi^2, dt * xi t, dt * t^2, dt * xi^3, dt * xi^2 t, dt * xi t^2, dt * t^3"
)
PINNED_PROVENANCE = {
    "fold-reduced-3": _tags(
        "dxi * xi^2, dxi * xi t, dxi * t^2, dxi * xi^3, dxi * xi^2 t, dxi * xi t^2, "
        "dxi * t^3, dt * xi^2, dt * xi t, dt * t^2, dt * xi^3, dt * xi^2 t, "
        "dt * xi t^2, dt * t^3, slot2 <- x, slot2 <- x^2, slot2 <- x y, "
        "slot2 <- x^3, slot3 <- x, slot3 <- y, slot3 <- x^2"
    ),
    "umbrella-A-star-4": _UMBRELLA_SOURCE_TAGS_4
    + _tags(
        "slot1 <- 1, slot1 <- x, slot1 <- x^2, slot2 <- 1, slot2 <- x, "
        "slot2 <- y, slot2 <- x^2, slot2 <- x y, slot2 <- x^3, slot2 <- x^4, "
        "slot3 <- 1, slot3 <- x, slot3 <- y, slot3 <- z, slot3 <- x^2, "
        "slot3 <- x^3, slot3 <- x^4"
    ),
    "umbrella-A-4": _UMBRELLA_SOURCE_TAGS_4
    + _tags(
        "slot1 <- 1, slot1 <- x, slot1 <- z, slot1 <- x^2, slot2 <- 1, "
        "slot2 <- x, slot2 <- y, slot2 <- z, slot2 <- x^2, slot2 <- x y, "
        "slot2 <- x z, slot2 <- z^2, slot2 <- x^3, slot2 <- x^4, slot3 <- 1, "
        "slot3 <- x, slot3 <- x^2, slot3 <- x^3, slot3 <- x^4"
    ),
}


def pinned_space(name):
    if name == "fold-reduced-3":
        return build_reduced_tangent_space(fold_form(8), order=3)
    kind = KIND_FULL if name == "umbrella-A-4" else KIND_FIBERED
    return build_extended_tangent_space(double_umbrella_form(Fraction(1, 5), 1, 8), 4, kind)


@pytest.mark.parametrize("name", sorted(PINNED_PROVENANCE))
def test_provenance_tags_are_pinned(name):
    """Which generator created each independent row, in build order."""
    basis = pinned_space(name)
    assert basis.provenance == PINNED_PROVENANCE[name]
    assert len(basis.provenance) == basis.rank


# ---------------------------------------------------------------------------
# integer generators at the working order against Fraction jets at the cap

SPACES = (KIND_FIBERED, KIND_FULL, "reduced")


def build_space(germ, order, space):
    if space == "reduced":
        return build_reduced_tangent_space(germ, order)
    return build_extended_tangent_space(germ, order, space)


def fraction_generators(germ, order, space):
    """Tagged generator triples as whole Fraction jets at the germ's cap:
    monomial multiples of the partials, then pullbacks of target monomials
    multiplied out from component powers, slot by slot."""
    cap = germ.cap
    comps = germ.components
    zero = TruncatedPoly.zero(SOURCE_VARS, cap)
    one = TruncatedPoly.constant(SOURCE_VARS, 1, cap)
    for name in SOURCE_VARS:
        partials = [comp.derive(name) for comp in comps]
        for md in monomial_basis(2, 2 if space == "reduced" else 0, order):
            mono = TruncatedPoly(SOURCE_VARS, cap, {md: 1})
            yield f"d{name} * {monomial_text(md, SOURCE_VARS)}", [mono * p for p in partials]
    if space == "reduced":
        planar_sq, spatial_sq = monomial_basis(2, 2, order), monomial_basis(3, 2, order)
        slots = ([(0, 1)] + planar_sq, [(1, 0)] + planar_sq, [(1, 0, 0), (0, 1, 0)] + spatial_sq)
    else:
        spatial = monomial_basis(3, 0, order)
        planar = spatial if space == KIND_FULL else monomial_basis(2, 0, order)
        slots = (planar, planar, spatial)
    powers = [[one] for _ in comps]
    for slot, monomials in enumerate(slots):
        for md in monomials:
            pulled = one
            for i, e in enumerate(md):
                while len(powers[i]) <= e:
                    powers[i].append(powers[i][-1] * comps[i])
                if e:
                    pulled = pulled * powers[i][e]
            triple = [zero, zero, zero]
            triple[slot] = pulled
            yield f"slot{slot + 1} <- {monomial_text(md, TARGET_VARS[: len(md)])}", triple


def assert_matches_fraction_reference(germ, order, space):
    basis = build_space(germ, order, space)
    monomials = monomial_basis(2, 0, order)
    columns = {
        (slot, md): slot * len(monomials) + i
        for slot in range(3)
        for i, md in enumerate(monomials)
    }
    reference = RowSpace(3 * len(monomials))
    provenance = [
        tag
        for tag, triple in fraction_generators(germ, order, space)
        if reference.add(flatten_triple(triple, columns))
    ]
    assert basis.canonical_matrix() == reference.canonical_matrix(), (order, space)
    assert list(basis.provenance) == provenance, (order, space)


H_BRANCH_GERM = legendrian_parameterization(
    family_from_invariants(0, Fraction(-39, 11), Fraction(-26, 11), cap=9)
)


def text_germ(texts, cap, at_origin=True):
    """A germ from component texts; at_origin=False skips MapGerm's check
    that the components vanish at the origin, which the builders'
    arithmetic does not rely on."""
    comps = [TruncatedPoly.from_text(SOURCE_VARS, text, cap) for text in texts]
    if at_origin:
        return MapGerm(comps)
    return tuple.__new__(MapGerm, comps)


# every component has a constant term, so its lowest degree is 0 and no
# pullback is 0 at any order
CONSTANT_TERM_GERM = text_germ(
    ("1 + xi + 1/2 t^2", "-2 + t^3 + xi t", "3/4 + xi t^2"), 7, at_origin=False
)
# slot 2 is 0 at every order and slot 3 below order 4: their lowest
# degree is the working order plus one
ZERO_COMPONENT_GERM = text_germ(("xi + t^2", "0", "t^4 + 2/3 xi^3 t"), 8)

REFERENCE_GERMS = {
    "umbrella-1/5": (double_umbrella_form(Fraction(1, 5), 1, 8), SPACES),
    # components with different denominators (11 and 7)
    "umbrella-37/11": (double_umbrella_form(Fraction(-37, 11), Fraction(13, 7), 10), SPACES),
    "fold": (fold_form(8), SPACES),
    "H-branch": (H_BRANCH_GERM, (KIND_FULL,)),
    "constant-term": (CONSTANT_TERM_GERM, SPACES),
    "zero-component": (ZERO_COMPONENT_GERM, SPACES),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_GERMS))
def test_generators_match_fraction_reference_at_every_order(name):
    germ, spaces = REFERENCE_GERMS[name]
    for order in range(1, germ.cap):
        for space in spaces:
            assert_matches_fraction_reference(germ, order, space)


_EXPONENTS = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda e: 1 <= sum(e) <= 5)
_COMPONENTS = st.dictionaries(
    _EXPONENTS, st.fractions(min_value=-4, max_value=4, max_denominator=9), max_size=4
)


@settings(database=None, deadline=None, max_examples=60)
@given(
    st.tuples(_COMPONENTS, _COMPONENTS, _COMPONENTS),
    st.integers(1, 4),
    st.sampled_from(SPACES),
)
def test_generators_match_fraction_reference_on_random_germs(comps, order, space):
    germ = MapGerm([TruncatedPoly(SOURCE_VARS, 5, comp) for comp in comps])
    assert_matches_fraction_reference(germ, order, space)


def test_builders_hand_no_zero_row_to_the_row_space(monkeypatch):
    """Generators that are 0 at the working order are never built."""
    rows = []
    add = RowSpace.add

    def recorded(self, row):
        rows.append(any(row.values()))
        return add(self, row)

    monkeypatch.setattr(RowSpace, "add", recorded)
    umbrella = double_umbrella_form(Fraction(-37, 11), Fraction(13, 7), 10)
    h_branch = legendrian_parameterization(
        family_from_invariants(0, Fraction(-39, 11), Fraction(-26, 11), cap=12)
    )
    builds = [(umbrella, 9, space) for space in SPACES] + [(h_branch, None, KIND_FULL)]
    for germ in (CONSTANT_TERM_GERM, ZERO_COMPONENT_GERM):
        builds += [(germ, order, space) for order in (2, 5) for space in SPACES]
    for germ, order, space in builds:
        rows.clear()
        build_space(germ, order, space)
        assert rows and all(rows), (germ, order, space)


def test_builders_make_no_jet_multiplication(monkeypatch):
    germs = [double_umbrella_form(Fraction(-37, 11), Fraction(13, 7), 10), H_BRANCH_GERM]
    calls = []
    multiply = TruncatedPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return multiply(self, other)

    monkeypatch.setattr(TruncatedPoly, "__mul__", counted)
    for germ in germs:
        for order in (1, germ.cap - 1):
            for space in SPACES:
                build_space(germ, order, space)
    assert calls == []
    TruncatedPoly.constant(SOURCE_VARS, 2, 4) * TruncatedPoly.variable(SOURCE_VARS, "t", 4)
    assert calls == [1]  # the counter sees a multiplication when there is one


def test_builders_leave_no_reference_cycles():
    # a cycle would keep each build's pullback memo alive until the cyclic
    # collector ran, so peak memory would grow with the number of builds
    germ = double_umbrella_form(Fraction(-37, 11), Fraction(13, 7), 10)
    gc.collect()
    gc.disable()
    try:
        for space in SPACES:
            build_space(germ, 9, space).canonical_matrix()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_builders_refuse_germs_in_other_variables():
    x = TruncatedPoly.variable(("u", "v"), "u", 4)
    with pytest.raises(ValueError, match="germs in"):
        build_extended_tangent_space(MapGerm((x, x * x, x * x * x)), 2)


def reference_cells(basis):
    """(column, slot, monomial) in the slot-major column order."""
    count = len(basis.monomials)
    return [
        (slot * count + i, slot, md)
        for slot in range(3)
        for i, md in enumerate(basis.monomials)
    ]


def reference_space(basis):
    """A fresh row space over the basis's reduced rows."""
    space = RowSpace(basis.dimension)
    for row in basis.canonical_matrix():
        space.add({j: v for j, v in enumerate(row) if v})
    return space


def reference_members(basis):
    """Columns whose unit vector lies in the span, one contains call each."""
    space = reference_space(basis)
    return {j for j, _, _ in reference_cells(basis) if space.contains({j: 1})}


@pytest.mark.parametrize("name", sorted(PINNED_PROVENANCE))
def test_block_caps_and_probes_match_unit_vector_reference(name):
    basis = pinned_space(name)
    cells = reference_cells(basis)
    members = reference_members(basis)
    window = range(basis.order + 2)

    for thresholds in product(window, repeat=3):
        missing = [
            (slot, md)
            for j, slot, md in cells
            if sum(md) >= thresholds[slot] and j not in members
        ]
        check = contains_ideal_block(basis, *thresholds)
        assert check.holds == (not missing), thresholds
        if missing:
            slot, md = missing[0]
            expected = {"slot": slot + 1, "monomial": monomial_text(md, SOURCE_VARS)}
            assert check.witness == expected, thresholds

    # the probe reads the unrestricted extended space, here of this germ
    # and of an H and an A branch germ at the same order
    germs = [
        basis.germ,
        MapGerm((XI_P, T_P**3, T_P * XI_P + T_P**5)),
        MapGerm((XI_P, T_P**3 + T_P * XI_P**4, T_P * T_P)),
    ]
    tops = []
    for germ, (family, branch_slot) in product(germs, (("H", 2), ("A", 1))):
        full = build_extended_tangent_space(germ, basis.order, KIND_FULL)
        full_members = reference_members(full)
        top = max(
            (
                sum(md)
                for j, slot, md in reference_cells(full)
                if slot == branch_slot and sum(md) > 0 and j not in full_members
            ),
            default=None,
        )
        got = probe_branch_index(germ, family, basis.order)
        assert got.essential_degree == top, (germ, family)
        tops.append(top)
    assert None in tops and len(set(tops)) > 2

    xi, t, zero = XI_P, T_P, ZERO
    vectors = [
        (zero, zero, t),
        (zero, t, zero),
        (t * t, zero, zero),
        (zero, t * t + xi * t, zero),
        (t**3, zero, xi * t),
        (t, xi, t * t),
    ]
    column = {(slot, md): j for j, slot, md in cells}
    # the vectors have integer coefficients, so their numerators are the row
    rows = [
        {column[slot, md]: v.numerator for slot, comp in enumerate(vec) for md, v in comp.terms()}
        for vec in vectors
    ]
    base = reference_space(basis)
    outcomes = set()
    for caps in product(range(basis.order + 1), repeat=3):
        space = base.copy()
        for j, slot, md in cells:
            if sum(md) > caps[slot]:
                space.add({j: 1})
        for vec, row in zip(vectors, rows):
            expected = space.contains(row)
            assert basis.contains(vec, caps=caps) == expected, (vec, caps)
            outcomes.add(expected)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# ranks against the sympy oracle


def test_fold_reduced_rank_matches_oracle():
    fold = fold_form(8)
    basis = build_reduced_tangent_space(fold, order=4)
    assert basis.rank == 36
    assert sympy_rank(oracle_comps(fold), 4, reduced=True) == 36


def test_umbrella_extended_rank_matches_oracle():
    germ = double_umbrella_form(Fraction(1, 5), 1, 8)
    basis = build_extended_tangent_space(germ, order=6, kind=KIND_FIBERED)
    assert basis.rank == 81
    assert sympy_rank(oracle_comps(germ), 6, kind="A-star") == 81


def test_umbrella_full_kind_rank_matches_oracle():
    germ = double_umbrella_form(Fraction(1, 5), 1, 8)
    basis = build_extended_tangent_space(germ, order=5, kind=KIND_FULL)
    assert basis.rank == 62
    assert sympy_rank(oracle_comps(germ), 5, kind="A") == 62


def test_membership_matches_oracle():
    germ = double_umbrella_form(Fraction(1, 5), 1, 8)
    basis = build_extended_tangent_space(germ, order=6)
    comps = oracle_comps(germ)
    assert basis.contains((ZERO, T_P**5, ZERO))
    assert sympy_contains(comps, 6, [sp.Integer(0), T**5, sp.Integer(0)])
    assert not basis.contains((ZERO, ZERO, T_P))
    assert not sympy_contains(comps, 6, [sp.Integer(0), sp.Integer(0), T])


def unit_triples(monomials):
    """Every slotwise monomial vector, in column order, as sympy triples."""
    triples = []
    for slot in range(3):
        for i, j in monomials:
            triple = [sp.Integer(0)] * 3
            triple[slot] = XI**i * T**j
            triples.append(triple)
    return triples


@pytest.mark.parametrize(
    "space",
    ["fold-reduced-4", "umbrella-A-star-5", "umbrella-A-5"],
)
def test_absorbed_columns_match_oracle_for_every_unit_vector(space):
    if space == "fold-reduced-4":
        germ = fold_form(8)
        basis = build_reduced_tangent_space(germ, order=4)
        options = {"reduced": True}
    else:
        germ = double_umbrella_form(Fraction(1, 5), 1, 8)
        kind = KIND_FULL if space == "umbrella-A-5" else KIND_FIBERED
        basis = build_extended_tangent_space(germ, order=5, kind=kind)
        options = {"kind": kind}
    members = sympy_contains_each(
        oracle_comps(germ), basis.order, unit_triples(basis.monomials), **options
    )
    expected = {j for j, inside in enumerate(members) if inside}
    assert basis.absorbed_columns() == expected
    assert 0 < len(expected) < basis.dimension  # both outcomes are exercised


def dense_absorbed(basis):
    """The dense reading: the unit rows of the whole canonical matrix."""
    return {
        row.index(1) for row in basis.canonical_matrix() if row.count(0) == len(row) - 1
    }


def assert_absorbed_from_every_start(build):
    """absorbed_columns(start) on a fresh basis, and on one whose canonical
    matrix is built, against the dense reading cut at every start column."""
    fresh, dense = build(), build()
    expected = dense_absorbed(dense)
    for start in range(fresh.dimension + 1):
        want = {j for j in expected if j >= start}
        assert fresh.absorbed_columns(start) == want, start
        assert dense.absorbed_columns(start) == want, start
    return expected


ABSORBED_UMBRELLAS = {
    "1/5": (Fraction(1, 5), 1),
    "-37/11": (Fraction(-37, 11), Fraction(13, 7)),
    "-1": (Fraction(-1), 1),  # an excluded modulus
}


@pytest.mark.parametrize("name", sorted(ABSORBED_UMBRELLAS))
def test_absorbed_columns_match_the_dense_reading_at_every_order(name):
    germ = double_umbrella_form(*ABSORBED_UMBRELLAS[name], cap=10, validate=False)
    sizes = set()
    for order in range(1, germ.cap):
        for space in SPACES:
            expected = assert_absorbed_from_every_start(lambda: build_space(germ, order, space))
            sizes.add(len(expected))
    assert len(sizes) > 2


@pytest.mark.parametrize("family, invariants", [("H", (0, 3, 2)), ("A", (0, 3, 1))])
def test_absorbed_columns_match_the_dense_reading_on_branch_germs(family, invariants):
    for cap in (10, 11, 12):
        germ = legendrian_parameterization(
            family_from_invariants(*invariants, higher="1/3 t^4 + -2 xi^2 t^3", cap=cap)
        )
        assert_absorbed_from_every_start(
            lambda: build_extended_tangent_space(germ, None, KIND_FULL)
        )
        assert probe_branch_index(germ, family).n == 2


def oracle_reduced_rows(basis, kind, reduced):
    """The reduced rows of the sympy generator matrix by dense Fraction
    Gauss-Jordan, its columns put in the basis's order, keyed by pivot."""
    rows, monomials = tangent_rows(oracle_comps(basis.germ), basis.order, kind, reduced)
    where = {md: i for i, md in enumerate(monomials)}
    order = [slot * len(monomials) + where[md] for slot in range(3) for md in basis.monomials]
    dense = reduced_echelon([[row[j] for j in order] for row in rows])
    sparse = [{j: v for j, v in enumerate(row) if v} for row in dense]
    return dense, {min(row): row for row in sparse}


def assert_reduced_form_matches_gauss_jordan(basis, kind=KIND_FIBERED, reduced=False):
    """reduced_rows from every start, each a fresh back-elimination, and
    the canonical matrix, against the independent dense reduction."""
    dense, rows = oracle_reduced_rows(basis, kind, reduced)
    assert len(rows) == basis.rank
    space = basis._space
    for start in range(basis.dimension, -1, -1):
        assert space.reduced_rows(start) == {j: r for j, r in rows.items() if j >= start}, start
    assert basis.canonical_matrix() == dense


@pytest.mark.parametrize("name", sorted(ABSORBED_UMBRELLAS))
def test_reduced_form_matches_dense_gauss_jordan_on_umbrellas(name):
    germ = double_umbrella_form(*ABSORBED_UMBRELLAS[name], cap=7, validate=False)
    for order in range(1, 7):
        for space in SPACES:
            kind = KIND_FIBERED if space == "reduced" else space
            basis = build_space(germ, order, space)
            assert_reduced_form_matches_gauss_jordan(basis, kind, space == "reduced")


@pytest.mark.parametrize("alpha", [Fraction(-26, 11), Fraction(-13, 11)], ids=["H", "A"])
def test_reduced_form_matches_dense_gauss_jordan_on_branch_germs(alpha):
    germ = legendrian_parameterization(family_from_invariants(0, Fraction(-39, 11), alpha, cap=7))
    for order in range(1, 7):
        basis = build_extended_tangent_space(germ, order, KIND_FULL)
        assert_reduced_form_matches_gauss_jordan(basis, KIND_FULL)
    # at order 6 the reduced rows have entries in several non-pivot columns
    rows = basis._space.reduced_rows()
    assert len({j for row in rows.values() for j in row} - rows.keys()) >= 2


def test_block_checks_and_classify_build_no_dense_matrix(monkeypatch):
    calls = []
    dense = RowSpace.canonical_matrix

    def counted(self):
        calls.append(1)
        return dense(self)

    monkeypatch.setattr(RowSpace, "canonical_matrix", counted)
    germ = double_umbrella_form(Fraction(-37, 11), Fraction(13, 7), 10)
    for space in SPACES:
        contains_ideal_block(build_space(germ, 9, space), 3, 5, 4)
    complement = [(ZERO, T_P, ZERO), (T_P * T_P, ZERO, ZERO), (ZERO, T_P**3, ZERO)]
    miniversality_check(double_umbrella_form(Fraction(1, 5), 1, 8), complement)
    for invariants in ((0, 3, 2), (0, 3, 1)):
        classify(family_from_invariants(*invariants, cap=10))
    assert calls == []
    build_space(germ, 3, KIND_FIBERED).canonical_matrix()
    assert calls == [1]  # the counter sees a dense matrix when there is one


def test_block_checks_on_one_basis_back_eliminate_once_per_lower_start(monkeypatch):
    calls = []
    back_eliminate = RowSpace._back_eliminate

    def counted(self, start):
        calls.append(start)
        return back_eliminate(self, start)

    monkeypatch.setattr(RowSpace, "_back_eliminate", counted)
    germ = double_umbrella_form(Fraction(-37, 11), Fraction(13, 7), 10)
    # the fourth block starts where the first does, the last one lower
    blocks = [(3, 5, 4), (4, 4, 4), (5, 6, 5), (3, 3, 3), (6, 6, 6), (2, 9, 9)]
    for space in SPACES:
        fresh, dense = build_space(germ, 9, space), build_space(germ, 9, space)
        dense.canonical_matrix()
        calls.clear()
        for block in blocks:
            assert contains_ideal_block(fresh, *block) == contains_ideal_block(dense, *block)
        assert len(calls) == 2 and calls[1] < calls[0], space
        # start 0 back-eliminates once more, and its rows serve every start
        for start in range(fresh.dimension + 1):
            assert fresh.absorbed_columns(start) == dense.absorbed_columns(start), start
        assert len(calls) == 3 and calls[2] == 0


def test_contains_with_caps_matches_oracle_with_truncated_unit_rows():
    cases = [
        ("fold", (ZERO, ZERO, T_P), (4, 4, 1)),
        ("fold", (ZERO, ZERO, T_P), (4, 4, 0)),
        ("fold", (ZERO, T_P * T_P + XI_P * T_P, ZERO), (1, 2, 1)),
        ("fold", (ZERO, T_P * T_P + XI_P * T_P, ZERO), (1, 1, 1)),
        ("fold", (T_P**3, ZERO, XI_P * T_P), (3, 2, 2)),
        ("umbrella", (ZERO, ZERO, T_P), (5, 5, 1)),
        ("umbrella", (ZERO, ZERO, T_P), (5, 5, 0)),
        ("umbrella", (ZERO, T_P + XI_P * T_P, ZERO), (5, 1, 5)),
        ("umbrella", (ZERO, T_P + XI_P * T_P, ZERO), (5, 0, 5)),
        ("umbrella", (T_P * T_P, ZERO, T_P**3), (2, 4, 3)),
    ]
    spaces = {
        "fold": (fold_form(8), build_reduced_tangent_space(fold_form(8), order=4), True),
        "umbrella": (
            double_umbrella_form(Fraction(1, 5), 1, 8),
            build_extended_tangent_space(double_umbrella_form(Fraction(1, 5), 1, 8), 5),
            False,
        ),
    }
    outcomes = []
    for name, vec, caps in cases:
        germ, basis, reduced = spaces[name]
        triple = [parse_component(comp.to_text()) for comp in vec]
        (expected,) = sympy_contains_each(
            oracle_comps(germ), basis.order, [triple], reduced=reduced, caps=caps
        )
        assert basis.contains(vec, caps=caps) == expected, (name, vec, caps)
        outcomes.append(expected)
    assert True in outcomes and False in outcomes


# ---------------------------------------------------------------------------
# ideal-block containment


def test_fold_reduced_contains_square_block():
    basis = build_reduced_tangent_space(fold_form(8), order=4)
    check = contains_ideal_block(basis, 2, 3, 2)
    assert check.holds
    assert bool(check)
    assert check.witness is None
    assert check.modulo_degree == 5
    payload = check.to_json()
    assert payload["holds"] is True and payload["block"] == [2, 3, 2]


def test_umbrella_block_holds_at_regular_moduli():
    for a in (Fraction(-1, 2), Fraction(1, 5), Fraction(1, 4)):
        for b in (Fraction(-1), Fraction(1)):
            basis = build_extended_tangent_space(double_umbrella_form(a, b, 8), 6)
            assert contains_ideal_block(basis, 3, 5, 4).holds, (a, b)


def test_umbrella_block_fails_with_witness_at_degenerate_moduli():
    cases = {
        Fraction(0): {"slot": 2, "monomial": "xi^4 t"},
        Fraction(1, 3): {"slot": 1, "monomial": "xi^2 t"},
    }
    for a, witness in cases.items():
        germ = double_umbrella_form(a, 1, 8, validate=False)
        basis = build_extended_tangent_space(germ, 6)
        check = contains_ideal_block(basis, 3, 5, 4)
        assert not check.holds
        assert check.witness == witness


def test_umbrella_block_at_minus_one_holds_and_oracle_agrees():
    """a = -1 is excluded from the projection normal form, yet the block
    containment itself holds at this order; the sympy oracle confirms every
    block monomial is absorbed (augmenting with all of them leaves the rank
    unchanged), so this is a property of the space, not a builder artifact.
    """
    germ = double_umbrella_form(-1, 1, 8, validate=False)
    basis = build_extended_tangent_space(germ, 6)
    assert contains_ideal_block(basis, 3, 5, 4).holds

    comps = oracle_comps(germ)
    rows, monomials = tangent_rows(comps, 6, kind="A-star")
    base_rank = sp.Matrix(rows).rank()
    extra = []
    for slot, threshold in enumerate((3, 5, 4)):
        for i in range(7):
            for j in range(7):
                if threshold <= i + j <= 6:
                    triple = [sp.Integer(0)] * 3
                    triple[slot] = XI**i * T**j
                    from helpers_oracle import _flatten

                    extra.append(_flatten(triple, monomials, 6))
    assert sp.Matrix(rows + extra).rank() == base_rank == 81


def test_block_vacuous_above_order():
    basis = build_extended_tangent_space(fold_form(8), order=2)
    assert contains_ideal_block(basis, 3, 3, 3).holds  # empty degree range
    with pytest.raises(ValueError):
        contains_ideal_block(basis, -1, 0, 0)


def test_contains_with_slot_caps():
    # modulo per-slot degrees, membership can only get easier
    germ = double_umbrella_form(Fraction(1, 5), 1, 8)
    basis = build_extended_tangent_space(germ, 6)
    vec = (ZERO, ZERO, T_P)
    assert not basis.contains(vec)
    assert basis.contains(vec, caps=(6, 6, 0))  # slot 3 truncated away entirely


# ---------------------------------------------------------------------------
# jet sufficiency


def test_jet_sufficiency_on_the_fold():
    fold = fold_form(8)
    # x pulls back into the third slot, so (0, 0, xi) is absorbed at level 1
    assert jet_sufficiency_step(fold, (ZERO, ZERO, XI_P))
    # nothing of degree 1 in the third slot produces t
    assert not jet_sufficiency_step(fold, (ZERO, ZERO, T_P))


def test_jet_sufficiency_infers_homogeneous_degrees():
    fold = fold_form(8)
    assert jet_sufficiency_step(fold, (ZERO, T_P**4, ZERO))
    with pytest.raises(ValueError):
        jet_sufficiency_step(fold, (ZERO, T_P + T_P**3, ZERO))  # inhomogeneous
    with pytest.raises(ValueError):
        jet_sufficiency_step(fold, (ZERO, T_P**4, ZERO), degrees=(1, 2))
    with pytest.raises(ValueError):
        jet_sufficiency_step(fold, (ZERO, T_P**4, ZERO), degrees=(1, 99, 1))


# ---------------------------------------------------------------------------
# miniversality


def test_umbrella_codimension_three():
    basis = build_extended_tangent_space(double_umbrella_form(Fraction(1, 5), 1, 8), 6)
    assert basis.codimension == 3


def test_miniversality_cokernel_complement_spans():
    germ = double_umbrella_form(Fraction(1, 5), 1, 8)
    complement = [(ZERO, T_P, ZERO), (ZERO, ZERO, T_P), (ZERO, ZERO, T_P * XI_P)]
    verdict = miniversality_check(germ, complement, 6)
    assert verdict["spans"] is True
    assert verdict["direct_sum"] is True
    assert verdict["complement_added"] == 3
    assert verdict["defect"] == []
    assert verdict["block_holds"] is True


def test_miniversality_reports_defect_columns():
    germ = double_umbrella_form(Fraction(1, 5), 1, 8)
    verdict = miniversality_check(germ, [], 6)
    assert verdict["spans"] is False
    assert verdict["defect"] == [
        {"slot": 2, "monomial": "t"},
        {"slot": 3, "monomial": "t"},
        {"slot": 3, "monomial": "xi t"},
    ]


def test_miniversality_dependent_complement_is_reported_not_raised():
    germ = double_umbrella_form(Fraction(1, 5), 1, 8)
    bump = T_P * T_P + T_P**3
    complement = [(ZERO, T_P, ZERO), (bump, ZERO, ZERO), (ZERO, bump, ZERO)]
    verdict = miniversality_check(germ, complement, 6)
    assert verdict["direct_sum"] is False
    assert verdict["spans"] is False
    assert verdict["dependent_complement_vectors"] == [["1 t^2 + 1 t^3", "0", "0"]]


def test_miniversality_degenerate_b_does_not_span():
    germ = double_umbrella_form(Fraction(1, 5), 0, 8)
    bump = T_P * T_P + T_P**3
    complement = [(ZERO, T_P, ZERO), (bump, ZERO, ZERO), (ZERO, bump, ZERO)]
    verdict = miniversality_check(germ, complement, 6)
    assert verdict["spans"] is False


# ---------------------------------------------------------------------------
# plane-to-plane germs: the same builders with two slots


def planar_germ(texts, cap):
    return MapGerm([TruncatedPoly.from_text(SOURCE_VARS, text, cap) for text in texts])


# The fibered planar group (slot 1 takes functions of x only) reads a
# higher codimension than A on these two forms, and the same on the rest.
_FIBERED_RIEGER = {"swallowtail": 2, "butterfly": 3}


@pytest.mark.parametrize("name", sorted(RIEGER_FORMS))
def test_rieger_codimensions_of_plane_to_plane_germs(name):
    texts, codimension = RIEGER_FORMS[name]
    for order in (8, 10, 12):
        germ = planar_germ(texts, order + 1)
        full = build_extended_tangent_space(germ, order, KIND_FULL)
        assert (full.codimension, full.dimension) == (codimension, len(full.monomials) * 2)
        fibered = build_extended_tangent_space(germ, order, KIND_FIBERED)
        assert fibered.codimension == _FIBERED_RIEGER.get(name, codimension), order


@pytest.mark.parametrize("name", sorted(MOND_FORMS))
def test_mond_codimensions_of_plane_to_space_germs(name):
    """The A_e-codimension of each of Mond's simple germs, read under A at
    every working order from 6 to 14 (even) that holds its top term."""
    texts, codimension = MOND_FORMS[name]
    degree = max(TruncatedPoly.from_text(SOURCE_VARS, text, 20).degree() for text in texts)
    orders = [order for order in (6, 8, 10, 12, 14) if order + 1 >= degree]
    assert len(orders) >= 3
    for order in orders:
        germ = MapGerm([TruncatedPoly.from_text(SOURCE_VARS, text, order + 1) for text in texts])
        basis = build_extended_tangent_space(germ, order, KIND_FULL)
        assert basis.codimension == codimension, order


@pytest.mark.parametrize("a", ["1/5", "1/4", "-1/2", "1/10", "-3", "-1", "0"])
def test_umbrella_projection_is_beaks_with_lambda_t_versal(a):
    """The projection (xi, t^3 + t^2 xi + a t xi^2) has A_e-codimension 1,
    and (0, t) lies outside the tangent space, so it fills the normal
    space: lambda t is a versal unfolding of the projection.  The fibered
    planar group reads the same, at the excluded a = -1 and 0 too."""
    for order in (8, 10, 12):
        germ = double_umbrella_form(a, 1, order + 1, validate=False).planar_projection()
        zero = TruncatedPoly.zero(SOURCE_VARS, order + 1)
        t = TruncatedPoly.variable(SOURCE_VARS, "t", order + 1)
        for kind in (KIND_FULL, KIND_FIBERED):
            basis = build_extended_tangent_space(germ, order, kind)
            assert basis.codimension == 1, (order, kind)
            assert not basis.contains((zero, t)), (order, kind)


@pytest.mark.parametrize("a", ["1/5", "1/4", "-1/2", "1/10", "-3", "-1", "0"])
@pytest.mark.parametrize("b", [1, -1, 0])
def test_umbrella_with_lambda_t_is_versal_except_at_a_zero(a, b):
    """The graph half of the beaks claim: the A_e-codimension of the double
    umbrella is 1 and (0, t, 0) lies outside the tangent space, so adding
    it fills the jet space and lambda t unfolds the umbrella versally.
    At a = 0 the codimension is the working order W, so (0, t, 0) cannot
    fill it: that germ is not finitely determined."""
    for order in (6, 9, 12):
        germ = double_umbrella_form(a, b, order + 1, validate=False)
        zero = TruncatedPoly.zero(SOURCE_VARS, order + 1)
        t = TruncatedPoly.variable(SOURCE_VARS, "t", order + 1)
        basis = build_extended_tangent_space(germ, order, KIND_FULL)
        space, inside = basis._enlarged(triples=[(zero, t, zero)])
        assert basis.codimension == (order if a == "0" else 1), order
        assert not inside, order
        assert (space.rank == basis.dimension) is (a != "0"), order


def test_umbrella_projection_at_one_third_is_not_finitely_determined():
    # the 3-jet is (x, y^3): the codimension grows with the working order
    codimensions = [
        build_extended_tangent_space(
            double_umbrella_form("1/3", 1, order + 1, validate=False).planar_projection(),
            order,
            KIND_FULL,
        ).codimension
        for order in (8, 10, 12)
    ]
    assert codimensions == [8, 10, 12]


def random_planar_germ(rng, cap):
    """Two components of one to four terms of degree 1..4, small rationals."""
    comps = []
    for _ in range(2):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(0, 4)
            terms[i, rng.randint(max(1 - i, 0), 4 - i)] = Fraction(
                rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 5)
            )
        comps.append(TruncatedPoly(SOURCE_VARS, cap, terms))
    return MapGerm(comps)


def test_planar_ranks_match_sympy_oracle_on_random_germs():
    rng = random.Random(27)
    codimensions = set()
    for _ in range(20):
        germ = random_planar_germ(rng, 5)
        order = rng.randint(2, 4)
        for kind in (KIND_FIBERED, KIND_FULL):
            basis = build_extended_tangent_space(germ, order, kind)
            assert basis.rank == sympy_rank(oracle_comps(germ), order, kind=kind), (germ, kind)
            codimensions.add(basis.codimension)
    assert len(codimensions) > 2  # the germs are not all alike


def test_planar_germs_are_refused_where_only_three_slots_are_defined():
    germ = double_umbrella_form("1/5", 1, 8).planar_projection()
    basis = build_extended_tangent_space(germ, 6)
    assert (basis.dimension, basis.codimension) == (2 * len(basis.monomials), 1)
    assert basis.contains((ZERO, T_P**3))
    with pytest.raises(ValueError, match="2-slot jet vector"):
        basis.contains((ZERO, ZERO, T_P))
    with pytest.raises(ValueError, match="3-component"):
        build_reduced_tangent_space(germ)
    with pytest.raises(ValueError, match="3-component"):
        jet_sufficiency_step(germ, (ZERO, T_P**4))
    with pytest.raises(ValueError, match="3 degree thresholds for 2 slots"):
        miniversality_check(germ, [(ZERO, T_P)], 6)
    with pytest.raises(ValueError, match="3 degree thresholds for 2 slots"):
        contains_ideal_block(basis, 3, 5, 4)
