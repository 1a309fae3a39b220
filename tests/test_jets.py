"""Jet arithmetic: exact coefficients, degree caps, parsing, composition,
the deformed map and its criminant."""

import random
import re
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_oracle import criminant as oracle_criminant
from helpers_oracle import deformed_double_umbrella, parse_component

from tanfam.families import double_umbrella_form
from tanfam.jets import (
    DEFAULT_CAP,
    MODE_BEAKS,
    MODE_VERSAL,
    SOURCE_VARS,
    TARGET_VARS,
    MapGerm,
    TruncatedPoly,
    as_fraction,
    compose,
    criminant,
    deform,
    grlex_key,
    monomial_basis,
    monomial_text,
)
from tanfam.selfcheck import DEFAULT_ORACLE_ORDER, _dict_derive, _dict_mul, _dict_truncate


def p(text, cap=DEFAULT_CAP):
    return TruncatedPoly.from_text(SOURCE_VARS, text, cap)


# ---------------------------------------------------------------------------
# coefficient coercion


def test_as_fraction_accepts_exact_inputs():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("1/5") == Fraction(1, 5)
    assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)
    # decimal strings go through Fraction's exact decimal parsing
    assert as_fraction("3.5") == Fraction(7, 2)
    assert as_fraction("-0.5") == Fraction(-1, 2)


@pytest.mark.parametrize(
    "value, accepted",
    [
        pytest.param("9" * 1000, True, id="1000 digits"),
        pytest.param("9" * 1001, False, id="1001 digits"),
        # leading zeros do not count
        pytest.param("0" * 2000 + "1", True, id="leading zeros"),
        pytest.param("1/" + "9" * 1000, True, id="denominator of 1000 digits"),
        pytest.param("1/" + "9" * 1001, False, id="denominator of 1001 digits"),
        ("1e999", True),
        ("1e1000", False),
        ("1e-999", True),
        ("1e-1000", False),
        pytest.param("0." + "0" * 998 + "1", True, id="999 decimal places"),
        pytest.param("0." + "0" * 999 + "1", False, id="1000 decimal places"),
        # Fraction would build 10**5000 to multiply it by zero
        ("0e5000", False),
        ("1e999999999", False),
        pytest.param(10**1000 - 1, True, id="int of 1000 digits"),
        pytest.param(-(10**1000), False, id="int of 1001 digits"),
    ],
)
def test_as_fraction_bounds_the_digits_of_input_numbers(value, accepted):
    if accepted:
        assert as_fraction(value) == Fraction(value)
    else:
        with pytest.raises(ValueError, match="more than 1000 digits"):
            as_fraction(value)


def test_parse_names_the_term_of_a_number_above_the_digit_bound():
    with pytest.raises(ValueError, match=r"number '1e1000' in term '1e1000 t\^3' has more"):
        TruncatedPoly.from_text(("xi", "t"), "1 xi t^2 + 1e1000 t^3")


def test_as_fraction_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_fraction(0.1)
    with pytest.raises(TypeError):
        as_fraction(True)
    with pytest.raises(TypeError):
        as_fraction(None)


def test_as_fraction_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        as_fraction("1/0")


# ---------------------------------------------------------------------------
# monomial order


def test_monomial_basis_degree_two_block():
    assert monomial_basis(2, 2, 2) == [(2, 0), (1, 1), (0, 2)]


def test_monomial_basis_is_graded():
    basis = monomial_basis(3, 0, 4)
    degrees = [sum(e) for e in basis]
    assert degrees == sorted(degrees)
    assert basis == sorted(basis, key=grlex_key)
    assert len(set(basis)) == len(basis)
    # sanity: count of monomials of degree <= 4 in 3 variables is C(7,3)
    assert len(basis) == 35


def test_monomial_basis_empty_ranges():
    assert monomial_basis(2, 3, 2) == []
    assert monomial_basis(2, -1, 2) == []


def test_monomial_text():
    assert monomial_text((0, 0), SOURCE_VARS) == "1"
    assert monomial_text((2, 1), SOURCE_VARS) == "xi^2 t"
    assert monomial_text((0, 3), SOURCE_VARS) == "t^3"


# ---------------------------------------------------------------------------
# construction and canonical text


def test_constructor_validates():
    with pytest.raises(ValueError):
        TruncatedPoly((), 4)
    with pytest.raises(ValueError):
        TruncatedPoly(SOURCE_VARS, 0)
    with pytest.raises(ValueError):
        TruncatedPoly(SOURCE_VARS, 4, {(1,): 1})  # wrong exponent arity
    with pytest.raises(ValueError):
        TruncatedPoly(SOURCE_VARS, 4, {(-1, 0): 1})
    with pytest.raises(TypeError):
        TruncatedPoly(SOURCE_VARS, 4, {(1, 0): 0.5})


@pytest.mark.parametrize("variables", [("x", "x"), ("xi", "ξ"), ("t", "xi", "τ")])
def test_constructor_refuses_a_repeated_variable(variables):
    with pytest.raises(ValueError, match="name one variable twice"):
        TruncatedPoly(variables, 3)
    with pytest.raises(ValueError, match="name one variable twice"):
        TruncatedPoly.variable(variables, variables[0], 3)


def test_constructor_drops_zero_and_overcap_terms():
    q = TruncatedPoly(SOURCE_VARS, 3, {(0, 0): 0, (4, 0): 1, (1, 1): 2})
    assert q.terms() == [((1, 1), Fraction(2))]
    assert q.degree() == 2


def test_canonical_text_order():
    # grlex with xi dominant: within degree 3 the order is xi^3, xi^2 t, xi t^2, t^3
    q = p("1 t^3 + 1 xi t^2 + 1/5 xi^2 t")
    assert q.to_text() == "1/5 xi^2 t + 1 xi t^2 + 1 t^3"


def test_text_round_trip():
    q = p("-1/2 xi^2 t + 1 xi t^2 + 3 + -2 t")
    assert p(q.to_text()) == q


@st.composite
def jets(draw):
    variables = draw(st.sampled_from([SOURCE_VARS, TARGET_VARS]))
    cap = draw(st.integers(1, 6))
    exponents = st.tuples(*[st.integers(0, cap)] * len(variables))
    coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=30)
    return TruncatedPoly(variables, cap, draw(st.dictionaries(exponents, coefficients, max_size=6)))


@settings(database=None, deadline=None, max_examples=150)
@given(jets())
def test_text_round_trip_property(q):
    assert TruncatedPoly.from_text(q.variables, q.to_text(), q.cap) == q


@pytest.mark.parametrize("text", [5, None, 1.5, ["1 t"], {"t": 1}])
def test_parse_rejects_non_strings(text):
    with pytest.raises(TypeError, match="string"):
        TruncatedPoly.from_text(SOURCE_VARS, text)


def test_parse_accepts_variants():
    assert p("2*xi*t") == p("2 xi t")
    assert p("xi^2") == p("1 xi^2")
    assert p("3 - t") == p("3 + -1 t")
    assert p("0") == TruncatedPoly.zero(SOURCE_VARS)
    assert p("") == TruncatedPoly.zero(SOURCE_VARS)
    # unicode variable alias
    assert p("2 ξ t") == p("2 xi t")


def test_parse_merges_repeated_terms():
    assert p("1 t + 1 t") == p("2 t")
    assert p("1 t + -1 t").is_zero


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        p("1 q^2")
    with pytest.raises(ValueError):
        p("2 3 t")  # two coefficients in one term
    with pytest.raises(ValueError):
        p("xi^-1")
    with pytest.raises(ZeroDivisionError):
        p("1/0 t^2")
    # an empty exponent is an error, not a first power
    with pytest.raises(ValueError, match=re.escape("empty exponent in term '1 xi^ t^3'")):
        p("1 t^2 + 1 xi^ t^3")
    with pytest.raises(ValueError, match="empty exponent"):
        p("1 t^")


@pytest.mark.parametrize(
    "text",
    [
        "1 t^2 - - 1 t^3",  # once read as 1 t^2 + -1 t^3
        "1 t^2 - + 1 t^3",  # once read as 1 t^2 + 1 t^3
        "1 t^2 + + 1 t^3",
        "- - 1 t^2",  # once read as -1 t^2
        "1 t^2 + -",  # once read as 1 t^2
        "1 t^2 -",
        "+",  # once read as 0
        "-",
    ],
)
def test_parse_rejects_doubled_and_trailing_signs(text):
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        p(text)


def test_parse_keeps_signs_written_against_a_term():
    assert p("1 t^2 + -1/5 t^3") == p("1 t^2 - 1/5 t^3")
    assert p("1 t^2 - -1 t^3") == p("1 t^2 + 1 t^3")
    assert p("+ -1/5 t^3") == p("-1/5 t^3")
    assert p("- 1 xi t^2 + 1 t^3") == p("-1 xi t^2 + 1 t^3")


@pytest.mark.parametrize("power", ["-0", "+2", "1_0", "x", "-1", "2.0", "２", "²"])
def test_parse_takes_ascii_digit_exponents_only(power):
    # int() took '-0' (as t^0), '+2', '1_0' (as t^10) and full-width
    # digits, and its message for 'x' did not name the term
    term = f"1 xi t^{power}"
    with pytest.raises(ValueError, match=re.escape(f"in term {term!r}")):
        p(f"1 t^2 + {term}")


def test_parse_reads_leading_zero_exponents():
    assert p("1 t^02") == p("1 t^2")
    assert p("1 xi^0 t^1") == p("1 t")


@pytest.mark.parametrize(
    "text, term, cap",
    [("1 xi t^2", "1 xi t^2", 2), ("1 t^2 + 1 t^99", "1 t^99", 8), ("1 t + -2 t^4", "-2 t^4", 3)],
)
def test_parse_rejects_terms_above_the_cap(text, term, cap):
    # the constructor truncates, but text naming a term past the cap is an input error
    with pytest.raises(ValueError, match=re.escape(f"term {term!r}") + f".*above the cap {cap}"):
        p(text, cap)
    assert p("1 t^3", 3).degree() == 3


def test_variable_and_constant_constructors():
    xi = TruncatedPoly.variable(SOURCE_VARS, "xi")
    assert xi.to_text() == "1 xi"
    assert TruncatedPoly.constant(SOURCE_VARS, "1/3").constant_term() == Fraction(1, 3)
    with pytest.raises(ValueError):
        TruncatedPoly.variable(SOURCE_VARS, "z")


# ---------------------------------------------------------------------------
# ring arithmetic and truncation


def test_addition_and_negation():
    f = p("1 xi + 2 t^2")
    g = p("3 xi + -2 t^2")
    assert (f + g).to_text() == "4 xi"
    assert (f - f).is_zero
    assert (-f) + f == TruncatedPoly.zero(SOURCE_VARS)


def test_multiplication_truncates_at_cap():
    f = p("1 xi^2", cap=3)
    g = p("1 t^2", cap=3)
    assert (f * g).is_zero  # degree 4 falls over the cap 3
    assert (p("1 xi", cap=3) * p("1 t^2", cap=3)).to_text() == "1 xi t^2"


def test_scalar_multiplication():
    f = p("1 xi + 1 t")
    assert (f * 2) == p("2 xi + 2 t")
    assert (Fraction(1, 2) * f) == p("1/2 xi + 1/2 t")
    with pytest.raises(TypeError):
        f * 0.5


def test_power():
    t = TruncatedPoly.variable(SOURCE_VARS, "t")
    assert t**3 == p("1 t^3")
    assert (p("1 xi + 1 t") ** 2) == p("1 xi^2 + 2 xi t + 1 t^2")
    assert (t**0).constant_term() == 1
    with pytest.raises(ValueError):
        t ** (-1)


def test_mixed_caps_and_variables_refused():
    with pytest.raises(ValueError):
        p("1 xi") + p("1 xi", cap=5)
    with pytest.raises(ValueError):
        p("1 xi") * TruncatedPoly.variable(TARGET_VARS, "x")


def test_jet_truncation_clamps():
    f = p("1 xi + 1 xi^2 t + 1 t^4")
    assert f.jet(2) == p("1 xi")
    assert f.jet(0).is_zero
    assert f.jet(-3).is_zero
    assert f.jet(99) == f


def test_with_cap_reinterprets():
    f = p("1 xi + 1 t^4")
    g = f.with_cap(3)
    assert g.cap == 3
    assert g == p("1 xi", cap=3)
    assert f.with_cap(8) == f


def test_evaluate_exact_and_float():
    f = p("1 xi^2 + 1/2 t")
    assert f.evaluate((Fraction(2), Fraction(4))) == Fraction(6)
    assert f.evaluate((2, 4)) == 6
    assert f.evaluate((0.5, 0.0)) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        f.evaluate((1,))


def test_equality_and_hash():
    assert p("1 xi t") == p("1 t xi")
    assert hash(p("1 xi t")) == hash(p("1 t xi"))
    assert p("1 xi") != p("1 t")
    # caps do not enter equality, only variables and coefficients
    assert p("1 xi") == p("1 xi", cap=5).with_cap(8)


# The caps the selfcheck suites run at: the rank oracle's and the algebra suites'.
SELFCHECK_CAPS = (DEFAULT_ORACLE_ORDER + 1, DEFAULT_CAP)


def fraction_tables(nvars, cap, low=0):
    exponents = st.tuples(*[st.integers(0, cap)] * nvars).filter(lambda e: low <= sum(e) <= cap)
    values = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    return st.dictionaries(exponents, values, max_size=4)


@settings(database=None, deadline=None, max_examples=100)
@given(st.data(), st.sampled_from((SOURCE_VARS, TARGET_VARS)), st.sampled_from(SELFCHECK_CAPS))
def test_integer_numerators_match_fraction_reference(data, variables, cap):
    """Every operation against plain Fraction dicts, and one canonical form
    (so equality and hash) whatever path built a jet."""
    n = len(variables)
    a, b = (data.draw(fraction_tables(n, cap)) for _ in range(2))
    comps = [data.draw(fraction_tables(n, cap, low=1)) for _ in range(n)]
    scalar = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=6))
    f, g = TruncatedPoly(variables, cap, a), TruncatedPoly(variables, cap, b)

    def same(jet, table, jet_cap=cap):
        expected = TruncatedPoly(variables, jet_cap, table)
        assert dict(jet.terms()) == {e: v for e, v in table.items() if v}
        assert jet.cap == jet_cap
        assert jet == expected and hash(jet) == hash(expected)

    same(f + g, {e: a.get(e, 0) + b.get(e, 0) for e in a.keys() | b.keys()})
    same(f - g, {e: a.get(e, 0) - b.get(e, 0) for e in a.keys() | b.keys()})
    same(f * g, _dict_mul(a, b, cap))
    same(f * scalar, {e: v * scalar for e, v in a.items()})
    power, reference = data.draw(st.integers(0, 3)), {(0,) * n: Fraction(1)}
    for _ in range(power):
        reference = _dict_mul(reference, a, cap)
    same(f**power, reference)
    for index, name in enumerate(variables):
        same(f.derive(name), _dict_derive(a, index))
    order = data.draw(st.integers(-1, cap + 1))
    same(f.jet(order), _dict_truncate(a, order))
    new_cap = data.draw(st.integers(1, cap + 2))
    same(f.with_cap(new_cap), _dict_truncate(a, new_cap), new_cap)
    composed: dict = {}
    for exponents, value in a.items():
        term = {(0,) * n: value}
        for comp, e in zip(comps, exponents):
            for _ in range(e):
                term = _dict_mul(term, comp, cap)
        for md, v in term.items():
            composed[md] = composed.get(md, 0) + v
    same(compose(f, [TruncatedPoly(variables, cap, c) for c in comps]), composed)

    zero = TruncatedPoly.zero(variables, cap)
    for left, right in [
        ((2 * f) * Fraction(1, 2), f),
        (f - f, zero),
        (f * 0, zero),
        (f + f, 2 * f),
        (TruncatedPoly.from_text(variables, f.to_text(), cap), f),
        ((f * scalar) * g, f * (g * scalar)),
    ]:
        assert left == right and hash(left) == hash(right)
    with pytest.raises(ValueError):
        f.with_cap(0)


# ---------------------------------------------------------------------------
# calculus


def test_derive_basic():
    f = p("1 xi^2 t + 3 t^2")
    assert f.derive("xi") == p("2 xi t")
    assert f.derive("t") == p("1 xi^2 + 6 t")
    assert f.derive("τ") == f.derive("t")  # alias accepted
    with pytest.raises(ValueError):
        f.derive("x")


def test_derive_trust_boundary():
    """A cap-degree term has no neighbour above it, so the derivative of a
    truncated jet is only reliable one degree below the cap."""
    full = p("1 t^5", cap=8)
    short = full.with_cap(4)  # t^5 discarded
    assert full.derive("t").jet(3) == short.with_cap(8).derive("t").jet(3)
    # at the cap itself they genuinely differ, which is why consumers clamp
    assert full.derive("t") != short.with_cap(8).derive("t")


def test_compose_substitutes():
    g = TruncatedPoly.from_text(TARGET_VARS, "1 x y + 1 z^2")
    comps = [p("1 t"), p("1 xi"), p("1 xi + 1 t")]
    assert compose(g, comps) == p("1 xi t + 1 xi^2 + 2 xi t + 1 t^2")


def test_compose_requires_vanishing_components():
    g = TruncatedPoly.from_text(TARGET_VARS, "1 x")
    comps = [p("1 + 1 t"), p("1 t"), p("1 t")]
    with pytest.raises(ValueError):
        compose(g, comps)


def test_compose_shift_identity():
    # composing with (xi - t, t) then reading off the first slot of (xi + t)
    xi = TruncatedPoly.variable(SOURCE_VARS, "xi")
    t = TruncatedPoly.variable(SOURCE_VARS, "t")
    assert compose(xi + t, (xi - t, t)) == xi


def test_compose_arity_mismatch():
    g = TruncatedPoly.from_text(TARGET_VARS, "1 x")
    with pytest.raises(ValueError):
        compose(g, [p("1 t")])


# ---------------------------------------------------------------------------
# map germs


def test_map_germ_properties():
    germ = MapGerm((p("1 xi"), p("1 t^2"), p("1 t")))
    assert germ.arity == 3
    assert germ.cap == DEFAULT_CAP
    assert germ.variables == SOURCE_VARS
    assert germ.to_texts() == ("1 xi", "1 t^2", "1 t")
    assert list(germ) == [germ[0], germ[1], germ[2]]
    assert len(germ) == 3


def test_map_germ_is_the_checked_tuple_of_its_jets():
    jets = (p("1 xi"), p("1 t^2"), p("1 t"))
    germ = MapGerm(jets)
    assert isinstance(germ, tuple)
    assert germ == jets and jets == germ and hash(germ) == hash(jets)
    assert germ == MapGerm(list(jets)) and germ != MapGerm(jets[:2])
    assert len(germ) == 3 and tuple(iter(germ)) == jets and germ[-1] == jets[2]
    assert type(germ[:2]) is tuple and germ[:2] == jets[:2]
    assert germ.components == jets and germ.arity == 3
    assert repr(germ) == "MapGerm('1 xi', '1 t^2', '1 t')"


@pytest.mark.parametrize(
    "jets, message",
    [
        ((p("1 xi"),), "a map germ has 2 or 3 components, got 1"),
        ((p("1 xi"),) * 4, "a map germ has 2 or 3 components, got 4"),
        ((p("1 + 1 xi"), p("1 t")), "map germ components must vanish at the origin"),
        ((p("1 xi"), p("1 t", cap=5)), "degree caps differ: 8 vs 5"),
        (
            (p("1 xi"), TruncatedPoly.from_text(("xi", "s"), "1 s")),
            "variable sets differ: ('xi', 't') vs ('xi', 's')",
        ),
    ],
)
def test_map_germ_validation_messages(jets, message):
    with pytest.raises(ValueError) as info:
        MapGerm(jets)
    assert str(info.value) == message


def test_map_germ_planar_projection():
    germ = MapGerm((p("1 xi"), p("1 t^2"), p("1 t")))
    flat = germ.planar_projection()
    assert flat.arity == 2
    assert flat.to_texts() == ("1 xi", "1 t^2")
    pair = MapGerm((p("1 xi"), p("1 t^2")))
    assert pair.planar_projection() is pair


def test_map_germ_validates():
    with pytest.raises(ValueError):
        MapGerm((p("1 xi"),))
    with pytest.raises(ValueError):
        MapGerm((p("1 + 1 xi"), p("1 t")))
    with pytest.raises(ValueError):
        MapGerm((p("1 xi"), p("1 t", cap=5)))


# ---------------------------------------------------------------------------
# the deformed map and its criminant


@pytest.mark.parametrize(
    "a", [Fraction(1, 5), Fraction(1, 4), Fraction(1, 10), Fraction(-1, 2), Fraction(-3)]
)
def test_beaks_criminant_closed_form(a):
    """The beaks deformation (xi, t^3 + t^2 xi + a t xi^2 + lam t) has
    D = 3 t^2 + 2 xi t + a xi^2 + lam, also at lam = 1/3 - a."""
    base = double_umbrella_form(a, 1)
    for lam in (Fraction(0), Fraction(1, 7), Fraction(-2, 9), Fraction(1, 3) - a):
        germ = deform(base, lam, 0, 0, MODE_BEAKS)
        assert germ[0] == base[0]
        d = criminant(germ)
        want = {(0, 2): 3, (1, 1): 2, (2, 0): a, (0, 0): lam}
        assert d == TruncatedPoly(SOURCE_VARS, d.cap, want)


def test_deformed_map_and_criminant_match_the_sympy_oracle():
    """deform and criminant against sympy on seeded rational versal
    parameters, with b and the mu both free."""
    rng = random.Random(21)

    def rational():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 12))

    for _ in range(10):
        a, b, lam, mu1, mu2 = (rational() for _ in range(5))
        germ = deform(double_umbrella_form(a, b, validate=False), lam, mu1, mu2, MODE_VERSAL)
        x, y = deformed_double_umbrella(a, b, lam, mu1, mu2)
        got = [parse_component(c.to_text()) for c in (*germ, criminant(germ))]
        assert [sp.expand(g - w) for g, w in zip(got, (x, y, oracle_criminant(x, y)))] == [0] * 3


def test_deform_takes_float_parameters_exactly_and_checks_its_input():
    base = double_umbrella_form(Fraction(1, 5), Fraction(1, 3))
    germ = deform(base, 0.1, -0.0, 0.3, MODE_VERSAL)
    assert germ[0] == base[0]  # -0.0 adds nothing
    assert germ[1].coefficient((0, 1)) == Fraction(0.1) != Fraction(1, 10)
    assert germ[1].coefficient((0, 3)) == 1 + Fraction(0.3) / 3
    with pytest.raises(ValueError, match="versal mode only"):
        deform(base, 0.1, 0.0, 1e-300, MODE_BEAKS)
    with pytest.raises(ValueError, match="mode must be"):
        deform(base, 0.1, 0, 0, "twist")
    with pytest.raises(ValueError, match="3-component"):
        deform(base.planar_projection(), 0.1, 0, 0, MODE_BEAKS)


def test_criminant_refuses_a_pair_at_different_caps():
    with pytest.raises(ValueError, match="degree caps differ"):
        criminant((p("1 xi"), p("1 t^2", cap=5)))
