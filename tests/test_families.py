"""Family classification: invariants, the modulus a, branch index probes."""

from fractions import Fraction

import pytest

from tanfam.families import (
    BranchIndex,
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
from tanfam.jets import MapGerm, SOURCE_VARS, TruncatedPoly

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


def test_extract_invariants_rejects_low_t_degree():
    with pytest.raises(NotTangentialError):
        extract_invariants(u("1 t"))
    with pytest.raises(NotTangentialError):
        extract_invariants(u("1 t^2 + 1 xi^3 t"))
    with pytest.raises(ValueError):
        extract_invariants(TruncatedPoly.from_text(("x", "y"), "1 y^2"))


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
