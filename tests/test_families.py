"""Family classification: invariants, the modulus a, branch index probes."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers_oracle import parse_component, sympy_rank
from tanfam.families import (
    BranchIndex,
    FamilyGerm,
    FamilyInvariants,
    NotTangentialError,
    classify,
    double_umbrella_form,
    extract_invariants,
    family_from_invariants,
    family_from_mapping,
    fold_form,
    invariant_a,
    legendrian_parameterization,
    probe_branch_index,
)
from tanfam.jets import (
    SOURCE_VARS,
    MapGerm,
    TruncatedPoly,
    compose,
    monomial_basis,
    monomial_text,
)
from tanfam.tangent import KIND_FIBERED, KIND_FULL, build_extended_tangent_space

XI = TruncatedPoly.variable(SOURCE_VARS, "xi", 8)
T = TruncatedPoly.variable(SOURCE_VARS, "t", 8)


def u(text, cap=8):
    return TruncatedPoly.from_text(SOURCE_VARS, text, cap)


# ---------------------------------------------------------------------------
# invariants


def test_extract_invariants_reads_steering_coefficients():
    g = extract_invariants(u("5 t^2 + 7 xi t^2 + 11 t^3 + 1/3 t^4"))
    assert g.invariants == FamilyInvariants(Fraction(5), Fraction(7), Fraction(11))
    assert g.cap == 8


def test_family_germ_takes_u_alone():
    with pytest.raises(TypeError):
        FamilyGerm(u=u("1 xi t^2 + 1 t^3"), k0=0, k1=1, alpha=Fraction(1, 2))
    with pytest.raises(TypeError):
        FamilyGerm(u("1 xi t^2"), Fraction(0))


def tangential_u(rng, cap):
    """A seeded u with every term of t-degree >= 2: small steering
    coefficients, often zero or equal, plus a tail up to the cap."""
    steering = ((0, 2), (1, 2), (0, 3))
    coeffs = {md: rng.choice([0, 0, 1, -1, 2, 3, Fraction(1, 2)]) for md in steering}
    for _ in range(rng.randint(0, 5)):
        exp_t = rng.randint(2, cap)
        md = (rng.randint(0, cap - exp_t), exp_t)
        coeffs.setdefault(md, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    return TruncatedPoly(SOURCE_VARS, cap, coeffs)


TANGENTIAL_US = [
    u("1 xi t^2 + 1 t^3", 4),
    u("1 xi t^2 + 1 t^3 + 1/2 xi^2 t^4 + 2 t^7", 10),
    u("1 xi t^2 + 1/2 t^3 + 3 xi t^5", 8),
] + [tangential_u(random.Random(seed), 4 + seed % 7) for seed in range(14)]


@pytest.mark.parametrize(
    "jet", TANGENTIAL_US, ids=[f"{i}-cap{jet.cap}" for i, jet in enumerate(TANGENTIAL_US)]
)
def test_a_family_record_reads_its_invariants_off_u(jet):
    germ = FamilyGerm(jet)
    assert germ.invariants == (
        jet.coefficient((0, 2)),
        jet.coefficient((1, 2)),
        jet.coefficient((0, 3)),
    )
    assert classify(germ).to_json() == classify(extract_invariants(jet)).to_json()


def test_the_record_of_xi_t2_plus_t3_is_indeterminate():
    # k1 = alpha = 1: no record can claim other steering coefficients for this u
    label = classify(FamilyGerm(u("1 xi t^2 + 1 t^3", 4)))
    assert label.variant == "IndeterminateAtOrder" and label.a is None


def test_extract_invariants_rejects_low_t_degree():
    with pytest.raises(NotTangentialError):
        extract_invariants(u("1 t"))
    with pytest.raises(NotTangentialError):
        extract_invariants(u("1 t^2 + 1 xi^3 t"))
    with pytest.raises(ValueError):
        extract_invariants(TruncatedPoly.from_text(("x", "y"), "1 y^2"))


def test_a_record_made_around_the_check_is_refused_by_the_lift():
    # xi^2 t has t-degree 1; its steering coefficients alone read as A1Plus, a = 1/4
    jet = u("1 xi^2 t + 1 xi t^2 + 1/2 t^3")
    with pytest.raises(NotTangentialError):
        extract_invariants(jet)
    with pytest.raises(NotTangentialError):
        legendrian_parameterization(FamilyGerm(jet))
    with pytest.raises(NotTangentialError):
        classify(FamilyGerm(jet))


def test_family_from_invariants_with_tail():
    g = family_from_invariants(0, 3, 2, higher="1/3 t^4 + -2 xi^2 t^3")
    assert g.k0 == 0 and g.k1 == 3 and g.alpha == 2
    assert g.u.coefficient((0, 4)) == Fraction(1, 3)
    # the tail must not shadow the steering coefficients
    with pytest.raises(ValueError):
        family_from_invariants(0, 3, 2, higher="1 t^3")
    with pytest.raises(NotTangentialError):
        family_from_invariants(0, 3, 2, higher="1 xi t")
    with pytest.raises(TypeError, match="string"):
        family_from_invariants(0, 3, 2, higher=5)


@pytest.mark.parametrize(
    "invariants, cap, name",
    [((1, 0, 0), 1, "k0"), ((0, 1, "1/2"), 2, "k1"), ((0, 0, "1/2"), 2, "alpha")],
)
def test_family_from_invariants_rejects_invariants_above_the_cap(invariants, cap, name):
    # before, the constructor truncated the term away without notice
    with pytest.raises(ValueError, match=f"^{name} = .* above the cap {cap}$"):
        family_from_invariants(*invariants, cap=cap)
    with pytest.raises(ValueError, match=f"above the cap {cap}"):
        family_from_mapping(dict(zip(("k0", "k1", "alpha"), invariants)), cap)


def test_family_from_invariants_accepts_zero_invariants_above_the_cap():
    g = family_from_invariants(1, 0, 0, cap=2)
    assert g.invariants == (1, 0, 0) and g.cap == 2
    assert family_from_invariants(0, 0, 0, cap=1).u.is_zero


def test_family_from_mapping_variants():
    assert family_from_mapping({"u": "1 t^2 xi"}).k1 == 1
    g = family_from_mapping({"k0": 0, "k1": "1", "alpha": "1/2"})
    assert g.alpha == Fraction(1, 2)
    with pytest.raises(ValueError):
        family_from_mapping({"k0": 0, "k1": 1})  # alpha missing


@pytest.mark.parametrize("extra", ["k0", "k1", "alpha", "higher"])
def test_family_from_mapping_rejects_u_with_invariant_keys(extra):
    value = "1 t^4" if extra == "higher" else "5"
    with pytest.raises(ValueError, match="together with"):
        family_from_mapping({"u": "1 xi t^2 + 3/2 t^3", extra: value})


@pytest.mark.parametrize(
    "data, key",
    [
        ({"k0": "0", "k1": "1", "alpha": "1/2", "hihger": "1/3 t^4"}, "hihger"),
        ({"u": "1 xi t^2", "components": ["1 xi", "1 t"]}, "components"),
        ({"k0": "0", "k1": "1", "alpha": "1/2", "": "0"}, ""),
    ],
)
def test_family_from_mapping_rejects_unknown_keys(data, key):
    with pytest.raises(ValueError, match="unknown keys") as info:
        family_from_mapping(data)
    assert repr(key) in str(info.value)


def test_invariant_a_values():
    assert invariant_a(extract_invariants(u("1 t^2 xi"))) == Fraction(-1)
    assert invariant_a(FamilyInvariants(Fraction(0), Fraction(1), Fraction(1, 2))) == Fraction(1, 4)
    with pytest.raises(ValueError):
        invariant_a(FamilyInvariants(Fraction(1), Fraction(1), Fraction(0)))  # k0 != 0
    with pytest.raises(ValueError):
        invariant_a(FamilyInvariants(Fraction(0), Fraction(0), Fraction(1)))  # k1 = 0


def test_invariant_a_never_exceeds_one_third():
    # 1 - 3a = ((3 alpha - 2 k1)/k1)^2 forces a <= 1/3
    for k1, alpha in [(1, 1), (2, -3), (5, 2), (-3, 1), (7, 7)]:
        if k1 == alpha:
            continue
        a = invariant_a(FamilyInvariants(Fraction(0), Fraction(k1), Fraction(alpha)))
        assert a <= Fraction(1, 3)


# ---------------------------------------------------------------------------
# the lifted parameterization


def test_parameterization_structure():
    g = family_from_invariants(5, 7, 11, higher="1/3 t^4")
    germ = legendrian_parameterization(g)
    assert germ.arity == 3
    # base-point-centered coordinates make the first component exactly xi
    assert germ[0] == XI
    # height starts at k0 t^2, slope at 2 k0 t with no xi-linear part
    assert germ[1].coefficient((0, 2)) == g.k0
    assert germ[2].coefficient((0, 1)) == 2 * g.k0
    assert germ[2].coefficient((1, 0)) == 0
    # 3-jet pattern: t^3 carries alpha - k1, t^2 xi carries k1
    assert germ[1].coefficient((0, 3)) == g.alpha - g.k1
    assert germ[1].coefficient((1, 2)) == g.k1
    # the pure-t tail passes through the shift untouched
    assert germ[1].coefficient((0, 4)) == Fraction(1, 3)


def test_parameterization_carries_tail_exactly():
    plain = legendrian_parameterization(family_from_invariants(0, 3, 2))
    tailed = legendrian_parameterization(
        family_from_invariants(0, 3, 2, higher="1/3 t^4 + -2 xi^2 t^3")
    )
    assert plain != tailed
    assert plain[0] == tailed[0]


# ---------------------------------------------------------------------------
# classification


def test_classify_first_type():
    label = classify(extract_invariants(u("1 t^2")))
    assert label.variant == "TypeI"
    assert label.a is None and label.branch is None
    assert label.germ[0] == XI


def test_classify_double_umbrella_minus():
    label = classify(extract_invariants(u("1 t^2 xi")))
    assert label.variant == "A1Minus"
    assert label.a == Fraction(-1)
    assert label.projection_form_applicable is False  # -1 is an excluded modulus


def test_classify_double_umbrella_plus():
    label = classify(family_from_invariants(0, 1, Fraction(1, 2)))
    assert label.variant == "A1Plus"
    assert label.a == Fraction(1, 4)
    assert label.projection_form_applicable is True


def test_classify_indeterminate():
    label = classify(extract_invariants(u("1 t^4")))
    assert label.variant == "IndeterminateAtOrder"
    assert label.order == 7
    # k1 = alpha is the other window into the indeterminate bucket
    assert classify(family_from_invariants(0, 2, 2)).variant == "IndeterminateAtOrder"


def test_classify_h_branch():
    label = classify(family_from_invariants(0, 3, 2))  # 2 k1 = 3 alpha
    assert label.variant == "HBranch"
    assert label.a == Fraction(1, 3)
    assert label.projection_form_applicable is False
    assert label.branch is not None and label.branch.family == "H"


def test_classify_a_branch():
    label = classify(family_from_invariants(0, 3, 1))  # k1 = 3 alpha
    assert label.variant == "ABranch"
    assert label.a == Fraction(0)
    assert label.branch is not None and label.branch.family == "A"


@pytest.mark.parametrize("order", [0, 8, 50])
def test_classify_rejects_order_outside_the_window(order):
    with pytest.raises(ValueError, match=r"1\.\.7"):
        classify(family_from_invariants(0, 1, Fraction(1, 2)), order=order)


def test_label_to_json_shape():
    payload = classify(family_from_invariants(0, 1, Fraction(1, 2))).to_json()
    assert payload["variant"] == "A1Plus"
    assert payload["a"] == "1/4"  # exact rationals travel as strings
    assert isinstance(payload["parameterization"], list)
    assert len(payload["parameterization"]) == 3


# ---------------------------------------------------------------------------
# branch index probes


def probe(components, family, order=None, cap=8):
    xi = TruncatedPoly.variable(SOURCE_VARS, "xi", cap)
    t = TruncatedPoly.variable(SOURCE_VARS, "t", cap)
    return probe_branch_index(MapGerm(components(xi, t)), family, order)


def test_probe_h_index_two():
    got = probe(lambda xi, t: (xi, t**3, t * xi + t**5), "H")
    assert got.resolved and got.n == 2
    assert got.essential_degree == 2


def test_probe_h_deeper_needs_wider_window():
    # at W = 7 the t^8 member is invisible, so index 3 cannot be certified
    got = probe(lambda xi, t: (xi, t**3, t * xi + t**8), "H")
    assert not got.resolved and got.lower_bound == 3
    # widening to W = 8 (cap 10 keeps derivatives trusted) resolves it
    got = probe(lambda xi, t: (xi, t**3, t * xi + t**8), "H", order=8, cap=10)
    assert got.resolved and got.n == 3


def test_probe_h_infinite_stays_unresolved():
    got = probe(lambda xi, t: (xi, t**3, t * xi), "H")
    assert not got.resolved and got.lower_bound == 3
    got = probe(lambda xi, t: (xi, t**3, t * xi), "H", order=8, cap=10)
    assert not got.resolved and got.lower_bound == 4


def test_probe_a_indices():
    assert probe(lambda xi, t: (xi, t**3 + t * xi**3, t**2), "A").n == 2
    assert probe(lambda xi, t: (xi, t**3 - t * xi**3, t**2), "A").n == 2
    assert probe(lambda xi, t: (xi, t**3 + t * xi**4, t**2), "A").n == 3
    assert probe(lambda xi, t: (xi, t**3 + t * xi**7, t**2), "A").n == 6


def test_probe_a_top_of_window_is_unresolved():
    got = probe(lambda xi, t: (xi, t**3 + t * xi**7, t**2), "A", order=6)
    assert not got.resolved and got.lower_bound == 6
    got = probe(lambda xi, t: (xi, t**3, t**2), "A")
    assert not got.resolved and got.lower_bound == 7


def test_probe_family_representatives():
    tail = u("1/3 t^4 + -2 xi^2 t^3")
    h_tailed = legendrian_parameterization(
        family_from_invariants(0, 3, 2, higher=tail)
    )
    assert probe_branch_index(h_tailed, "H").n == 2
    a_tailed = legendrian_parameterization(
        family_from_invariants(0, 3, 1, higher=tail)
    )
    assert probe_branch_index(a_tailed, "A").n == 2
    # normal-form families with no tail look the same at every index deep
    # enough, so the probe must refuse to pick one
    h_bare = legendrian_parameterization(family_from_invariants(0, 3, 2))
    assert not probe_branch_index(h_bare, "H").resolved
    a_bare = legendrian_parameterization(family_from_invariants(0, 3, 1))
    assert not probe_branch_index(a_bare, "A").resolved


def test_probe_h_top_failure_off_the_3j_minus_1_pattern_is_unresolved():
    # the top resisting degree 4 is not 3j - 1, so no H index fits it
    germ = MapGerm(
        tuple(TruncatedPoly.from_text(SOURCE_VARS, text, 8) for text in ("0", "3 xi^3 t", "-3 xi"))
    )
    got = probe_branch_index(germ, "H")
    assert (got.resolved, got.n, got.lower_bound, got.essential_degree) == (False, None, 2, 4)


def test_probe_validates_family_name():
    with pytest.raises(ValueError):
        probe_branch_index(fold_form(8), "Q")


def test_branch_index_to_json():
    payload = BranchIndex("H", 7, resolved=True, n=2, essential_degree=2).to_json()
    assert payload == {
        "family": "H",
        "order": 7,
        "resolved": True,
        "n": 2,
        "lower_bound": None,
        "essential_degree": 2,
    }


# ---------------------------------------------------------------------------
# normal forms


def test_fold_form():
    assert fold_form(8).to_texts() == ("1 xi", "1 t^2", "1 t")


def test_double_umbrella_form_texts():
    germ = double_umbrella_form(Fraction(-1, 2), -1)
    assert germ.to_texts() == (
        "1 xi",
        "-1/2 xi^2 t + 1 xi t^2 + 1 t^3",
        "1 t^2 + -1 t^3",
    )


def test_double_umbrella_form_validation():
    for a in (Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(2)):
        with pytest.raises(ValueError):
            double_umbrella_form(a, 1)
        assert double_umbrella_form(a, 1, validate=False).arity == 3


@pytest.mark.parametrize("validate", [True, False])
def test_double_umbrella_form_needs_its_cubic_terms(validate):
    with pytest.raises(ValueError, match="cap >= 3"):
        double_umbrella_form(Fraction(1, 5), 1, cap=2, validate=validate)
    assert double_umbrella_form(Fraction(1, 5), 1, cap=3, validate=validate).cap == 3


# ---------------------------------------------------------------------------
# verdicts against the codimension of the lifted graph


def _nonzero(rng):
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 5))


# alpha / k1 off 1, 2/3 and 1/3: the double umbrella, with a > 0 exactly
# for the ratios between 1/3 and 1
_UMBRELLA_RATIOS = [Fraction(r) for r in ("1/2", "4/5", "2/5", "5/6", "0", "-1", "3/2", "1/5", "2")]
_VARIANTS = {"fold": {"TypeI"}, "A1": {"A1Plus", "A1Minus"}, "H": {"HBranch"}, "A": {"ABranch"}}


def seeded_family(rng, kind):
    """A family of one kind at a cap from 8 to 12: "fold" (k0 != 0), "A1"
    (k0 = 0 and alpha off k1, 2 k1 / 3 and k1 / 3), "H" (2 k1 = 3 alpha) or
    "A" (k1 = 3 alpha), with up to 3 tangential tail terms off t^2, xi t^2
    and t^3."""
    cap = rng.randint(8, 12)
    k1 = _nonzero(rng)
    if kind == "fold":
        k0, k1, alpha = _nonzero(rng), rng.choice((0, k1)), rng.choice((0, _nonzero(rng)))
    else:
        ratio = {"A1": rng.choice(_UMBRELLA_RATIOS), "H": Fraction(2, 3), "A": Fraction(1, 3)}
        k0, alpha = 0, k1 * ratio[kind]
    tail = {}
    for _ in range(rng.randint(0, 3)):
        exp_t = rng.randint(2, cap)
        md = (rng.randint(0, cap - exp_t), exp_t)
        if md not in ((0, 2), (1, 2), (0, 3)):
            tail[md] = _nonzero(rng)
    return family_from_invariants(k0, k1, alpha, TruncatedPoly(SOURCE_VARS, cap, tail), cap)


def test_every_verdict_matches_the_codimension_of_its_graph():
    """Under A the lifted graph's codimension at cap - 1 is 0 for the fold,
    1 for the double umbrella (Mond's S_1), n for a resolved branch of
    index n and at least lower_bound for an unresolved one.  It is read
    off the whole tangent space, not the branch probe's block columns."""
    rng = random.Random(14)
    seen = Counter()
    for kind in _VARIANTS:
        for _ in range(40):
            g = seeded_family(rng, kind)
            label = classify(g)
            assert label.variant in _VARIANTS[kind], (kind, g.u)
            germ = legendrian_parameterization(g)
            basis = build_extended_tangent_space(germ, g.cap - 1, KIND_FULL)
            branch = label.branch
            if branch is None:
                expected = 0 if kind == "fold" else 1
                assert basis.codimension == expected, g.u
            elif branch.resolved:
                assert basis.codimension == branch.n, g.u
            else:
                assert basis.codimension >= branch.lower_bound, g.u
            seen[label.variant, branch is not None and branch.resolved] += 1
    assert set(seen) == {
        ("TypeI", False), ("A1Plus", False), ("A1Minus", False),
        ("HBranch", True), ("HBranch", False), ("ABranch", True), ("ABranch", False),
    }


# one family per verdict: (k0, k1, alpha), tail, cap
_ORACLE_FAMILIES = {
    "TypeI": ((1, 2, 0), "1/2 xi t^4", 6),
    "A1Plus": ((0, 1, "1/2"), "1 t^5", 6),
    "A1Minus": ((0, 1, -1), None, 6),
    "HBranch": ((0, 3, 2), "1 xi^2 t^3", 7),
    "ABranch": ((0, 3, 1), None, 6),
    "IndeterminateAtOrder": ((0, 0, 1), None, 6),
}


@pytest.mark.parametrize("variant", list(_ORACLE_FAMILIES))
def test_graph_codimension_matches_the_sympy_oracle(variant):
    invariants, higher, cap = _ORACLE_FAMILIES[variant]
    g = family_from_invariants(*invariants, higher, cap)
    assert classify(g).variant == variant
    germ = legendrian_parameterization(g)
    basis = build_extended_tangent_space(germ, cap - 1, KIND_FULL)
    comps = [parse_component(text) for text in germ.to_texts()]
    assert sympy_rank(comps, cap - 1, kind=KIND_FULL) == basis.rank


# ---------------------------------------------------------------------------
# tangential deformations of the lifted graph


def enlarging_monomials(g, kind):
    """The monomials m = xi^i t^j (j >= 2, i + j <= cap - 1) whose direction
    (0, m o s, (dm/dt) o s), s the shift (xi - t, t), enlarges the lifted
    graph's extended space when the directions are added in turn."""
    cap = g.cap
    xi, t = (TruncatedPoly.variable(SOURCE_VARS, name, cap) for name in SOURCE_VARS)
    shift, zero = (xi - t, t), TruncatedPoly.zero(SOURCE_VARS, cap)
    directions = {}
    for md in monomial_basis(2, 2, cap - 1):
        if md[1] >= 2:
            m = TruncatedPoly(SOURCE_VARS, cap, {md: 1})
            directions[md] = (zero, compose(m, shift), compose(m.derive("t"), shift))
    basis = build_extended_tangent_space(legendrian_parameterization(g), cap - 1, kind)
    _, inside = basis._enlarged(triples=directions.values())
    return [monomial_text(md, SOURCE_VARS) for md, vec in directions.items() if vec not in inside]


@pytest.mark.parametrize("cap", [6, 10, 14])
@pytest.mark.parametrize(
    "invariants, fibered",
    [
        ((1, 0, 0), []),
        ((0, 1, "1/2"), ["xi t^2", "xi^2 t^2"]),
        ((0, 1, 2), ["xi t^2", "xi^2 t^2"]),
        ((0, 3, "-5/7"), ["xi t^2", "xi^2 t^2"]),
    ],
    ids=["fold", "A1-plus", "A1-minus", "A1-minus-k1-3"],
)
def test_tangential_directions_enlarge_only_the_fibered_umbrella_space(invariants, fibered, cap):
    """The fold absorbs every tangential direction; the double umbrella
    absorbs all but xi t^2 and xi^2 t^2 under A-star and all under A."""
    g = family_from_invariants(*invariants, cap=cap)
    assert enlarging_monomials(g, KIND_FIBERED) == fibered
    assert enlarging_monomials(g, KIND_FULL) == []


def test_tangential_directions_on_the_branch_families():
    h = family_from_invariants(0, 1, Fraction(2, 3), cap=10)
    assert enlarging_monomials(h, KIND_FIBERED) == [
        "xi t^2", "xi^2 t^2", "xi^4 t^2", "xi^5 t^2", "xi^7 t^2"
    ]
    assert enlarging_monomials(h, KIND_FULL) == ["xi t^2", "xi^4 t^2", "xi^7 t^2"]
    a = family_from_invariants(0, 1, Fraction(1, 3), cap=10)
    every_xi_t = [f"xi t^{j}" for j in range(2, 9)]
    assert enlarging_monomials(a, KIND_FIBERED) == enlarging_monomials(a, KIND_FULL) == every_xi_t
