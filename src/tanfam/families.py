"""Classification of tangential family germs through their Legendrian graphs.

A one-parameter family of plane curves, each tangent to the x-axis at a
moving base point, is taken here in adapted form: the family map is
(xi, t) -> (xi + t, u(xi, t)), where xi locates the base point, t runs
along the curve, and every term of u has t-degree >= 2 (that is exactly
tangency to the axis at t = 0 for every xi).  Inputs whose support curve
is not the x-axis must be straightened by the caller first.

Three coefficients of u steer the classification: k0 at t^2, alpha at
t^3, and k1 at t^2 xi.  The graph of the family, lifted by recording the
curve slope as a third coordinate, is parameterized after the shift
(xi, t) -> (xi - t, t) by

    (xi, u(xi - t, t), (du/dt)(xi - t, t)),

whose 3-jet begins (xi, k0 t^2 + (alpha - k1) t^3 + k1 t^2 xi,
2 k0 t + (3 alpha - 2 k1) t^2 + 2 k1 t xi).  When k0 = 0 and k1 is
nonzero the modulus

    a = (alpha - k1)(k1 - 3 alpha) / k1^2

decides everything: a > 0 and a < 0 give the two transversal
double-umbrella classes, while the degenerate values a = 1/3 (reached
exactly when 2 k1 = 3 alpha) and a = 0 with k1 = 3 alpha open the two
deeper branch families.  The identity 1 - 3a = ((3 alpha - 2 k1)/k1)^2
shows a <= 1/3 always.  A separate flag records whether the planar
projection admits the two-parameter normal form, which needs a outside
{-1, 0} on top of a < 1/3; the flag is independent of the class label
(the class can be definite while the flag is false).

Branch indices for the degenerate families are probed through the
unrestricted-group tangent space of the lifted graph.  Scanning jet
degrees from the working order downward, the highest degree whose slot
content the space cannot absorb is the signature of the next more
generic germ in the branch (for the H family these signatures sit at
degrees 3j - 1 in the slope slot; for the A family at every degree from
2 up to n in the middle slot), and that pins the index whenever the
germ's own distinguishing degree still fits under the order.  The probe
certifies nothing beyond the working order; verdicts carry an explicit
lower bound instead of a guess when the window is too short.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from tanfam.jets import (
    DEFAULT_CAP,
    SOURCE_VARS,
    MapGerm,
    RationalLike,
    TruncatedPoly,
    as_fraction,
    compose,
)
from tanfam.tangent import KIND_FULL, build_extended_tangent_space, resolve_order


class NotTangentialError(ValueError):
    """The function u has a term of t-degree < 2, so some family curve is
    not tangent to the support axis at its base point."""


class FamilyInvariants(NamedTuple):
    k0: Fraction
    k1: Fraction
    alpha: Fraction


class FamilyGerm(NamedTuple):
    """Adapted tangential-family data: u plus its three steering coefficients."""

    u: TruncatedPoly
    k0: Fraction
    k1: Fraction
    alpha: Fraction

    @property
    def invariants(self) -> FamilyInvariants:
        return FamilyInvariants(self.k0, self.k1, self.alpha)

    @property
    def cap(self) -> int:
        return self.u.cap


def extract_invariants(u: TruncatedPoly) -> FamilyGerm:
    """Validate tangency and read off (k0, k1, alpha) from the jet of u."""
    if u.variables != SOURCE_VARS:
        raise ValueError(f"u must be a jet in {SOURCE_VARS}, got {u.variables}")
    for (exp_xi, exp_t), _ in u.terms():
        if exp_t < 2:
            raise NotTangentialError(
                f"term {'xi^' + str(exp_xi) if exp_xi else ''} t^{exp_t} of u has "
                "t-degree < 2; the family is not tangent to the axis"
            )
    return FamilyGerm(
        u=u,
        k0=u.coefficient((0, 2)),
        k1=u.coefficient((1, 2)),
        alpha=u.coefficient((0, 3)),
    )


def family_from_invariants(
    k0: RationalLike,
    k1: RationalLike,
    alpha: RationalLike,
    higher: TruncatedPoly | str | None = None,
    cap: int = DEFAULT_CAP,
) -> FamilyGerm:
    """Build u = k0 t^2 + alpha t^3 + k1 t^2 xi plus an optional tail.

    The tail must be tangential itself and must not touch the three
    steering monomials, so the stated invariants stay authoritative.  A
    nonzero invariant whose monomial lies above the cap raises ValueError
    rather than being truncated away.
    """
    steering = {}
    for md, name, raw in (((0, 2), "k0", k0), ((1, 2), "k1", k1), ((0, 3), "alpha", alpha)):
        try:
            steering[md] = value = as_fraction(raw)
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"{name}: {exc}") from exc
        if value != 0 and sum(md) > cap:
            raise ValueError(
                f"{name} = {value} multiplies a degree-{sum(md)} term, above the cap {cap}"
            )
    u = TruncatedPoly(SOURCE_VARS, cap, steering)
    if higher is not None:
        if not isinstance(higher, TruncatedPoly):
            higher = TruncatedPoly.from_text(SOURCE_VARS, higher, cap)
        extract_invariants(higher)  # reuses the tangency validation
        for md in ((0, 2), (1, 2), (0, 3)):
            if higher.coefficient(md) != 0:
                raise ValueError(
                    "the higher-order tail must not touch the t^2, t^3, t^2 xi "
                    "coefficients; pass them as k0, alpha, k1"
                )
        u = u + higher.with_cap(cap)
    return extract_invariants(u)


_INVARIANT_KEYS = ("k0", "k1", "alpha", "higher")


def family_from_mapping(data: dict, cap: int = DEFAULT_CAP) -> FamilyGerm:
    """Accept {"u": text} or {"k0": .., "k1": .., "alpha": .., "higher": text?}."""
    unknown = [key for key in data if key != "u" and key not in _INVARIANT_KEYS]
    if unknown:
        raise ValueError(f"family input has unknown keys {unknown}")
    if "u" in data:
        conflicting = [key for key in _INVARIANT_KEYS if key in data]
        if conflicting:
            raise ValueError(f"family input gives 'u' together with {conflicting}; pass one form")
        u = TruncatedPoly.from_text(SOURCE_VARS, data["u"], cap)
        return extract_invariants(u)
    missing = [key for key in ("k0", "k1", "alpha") if key not in data]
    if missing:
        raise ValueError(f"family input needs either 'u' or k0/k1/alpha; missing {missing}")
    return family_from_invariants(
        data["k0"], data["k1"], data["alpha"], data.get("higher"), cap
    )


def legendrian_parameterization(g: FamilyGerm) -> MapGerm:
    """The lifted graph surface in base-point-centered coordinates.

    Constructs (xi + t, u, du/dt) (position, height, slope) and applies
    the shift (xi, t) -> (xi - t, t), carrying every higher-order term of
    u through exactly.  The third component is trustworthy one degree
    below the cap, like every derivative.
    """
    u = g.u
    cap = u.cap
    xi = TruncatedPoly.variable(SOURCE_VARS, "xi", cap)
    t = TruncatedPoly.variable(SOURCE_VARS, "t", cap)
    shift = (xi - t, t)
    return MapGerm(
        (
            compose(xi + t, shift),
            compose(u, shift),
            compose(u.derive("t"), shift),
        )
    )


def invariant_a(g: "FamilyGerm | FamilyInvariants") -> Fraction:
    """The modulus a = (alpha - k1)(k1 - 3 alpha)/k1^2; needs k0 = 0, k1 != 0.

    Always <= 1/3, with equality exactly when 2 k1 = 3 alpha.
    """
    k0, k1, alpha = _invariants_of(g)
    if k1 == 0:
        raise ValueError("the modulus a needs k1 != 0 (family not of second type)")
    if k0 != 0:
        raise ValueError("the modulus a is defined for k0 = 0 families only")
    return (alpha - k1) * (k1 - 3 * alpha) / (k1 * k1)


def _invariants_of(g: "FamilyGerm | FamilyInvariants") -> FamilyInvariants:
    if isinstance(g, FamilyGerm):
        return g.invariants
    return FamilyInvariants(*(as_fraction(v) for v in g))


class BranchIndex(NamedTuple):
    """Probe result for the index n of a degenerate branch family.

    essential_degree is the highest jet degree, up to the working order,
    whose content in the branch slot (the slope slot for the H family,
    the middle slot for the A family) the tangent space cannot absorb.
    An H germ of index n leaves exactly the signature degrees 3j - 1 for
    j < n unabsorbed, an A germ of index n every degree from 2 to n, so
    the top failure determines n when the scan also witnesses absorption
    at the germ's own distinguishing degree.  When that degree lies above
    the order, resolved is False and lower_bound gives the smallest index
    still compatible with what was seen.
    """

    family: str
    order: int
    resolved: bool
    n: int | None = None
    lower_bound: int | None = None
    essential_degree: int | None = None

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "order": self.order,
            "resolved": self.resolved,
            "n": self.n,
            "lower_bound": self.lower_bound,
            "essential_degree": self.essential_degree,
        }


def probe_branch_index(
    germ: MapGerm,
    family: str,
    order: int | None = None,
) -> BranchIndex:
    """Locate the index of a branch germ via unabsorbed jet content.

    Builds the tangent space of the germ under the unrestricted group
    (all source and target coordinate changes) and reads, from its
    absorbed columns, the highest degree of the branch slot not fully
    inside the span.  Content the space absorbs is removable by a coordinate
    change; the top degree that resists marks the adjacent more generic
    germ in the branch and so pins the index, provided enough of the
    window above it was seen to rule out deeper members.
    """
    if family not in ("H", "A"):
        raise ValueError(f"branch family must be 'H' or 'A', got {family!r}")
    basis = build_extended_tangent_space(germ, order, kind=KIND_FULL)
    order = basis.order
    above = order + 1  # a threshold above the window selects no column
    block = basis.block_columns((above, above, 1) if family == "H" else (above, 1, above))
    absorbed = basis.absorbed_columns(min(block, default=0))
    top_failure = max((d for j, d in block.items() if j not in absorbed), default=None)
    if top_failure is None:
        # Nothing resists at any degree; no branch signature in the window.
        return BranchIndex(family, order, resolved=False, lower_bound=2)
    if family == "H":
        n, remainder = divmod(top_failure + 1, 3)
        n += 1
        if remainder != 0:
            # Not a 3j - 1 signature degree; outside the H pattern.
            return BranchIndex(
                family, order, resolved=False, lower_bound=2, essential_degree=top_failure
            )
        if 3 * n - 1 > order:
            # The germ's own term t^(3n-1) sits above the window, so any
            # deeper member of the branch would look identical.
            return BranchIndex(
                family, order, resolved=False, lower_bound=n, essential_degree=top_failure
            )
        return BranchIndex(family, order, resolved=True, n=n, essential_degree=top_failure)
    n = top_failure
    if n == order:
        # Failure at the very top of the window; deeper members match too.
        return BranchIndex(
            family, order, resolved=False, lower_bound=n, essential_degree=top_failure
        )
    if n < 2:
        return BranchIndex(
            family, order, resolved=False, lower_bound=2, essential_degree=top_failure
        )
    return BranchIndex(family, order, resolved=True, n=n, essential_degree=top_failure)


class SingularityLabel(NamedTuple):
    """Classifier verdict for a tangential family germ.

    a and the projection-form flag are present for second-type verdicts
    only; branch carries the probed index for the two degenerate
    families; order is the working order behind probe-dependent verdicts.
    """

    variant: str
    a: Fraction | None = None
    projection_form_applicable: bool | None = None
    branch: BranchIndex | None = None
    order: int | None = None
    germ: MapGerm | None = None

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "a": None if self.a is None else str(self.a),
            "projection_form_applicable": self.projection_form_applicable,
            "branch": None if self.branch is None else self.branch.to_json(),
            "order": self.order,
            "parameterization": None if self.germ is None else list(self.germ.to_texts()),
        }


def _normal_form_applies(a: Fraction) -> bool:
    """Does the two-parameter projection normal form exist at modulus a?"""
    return a not in (Fraction(-1), Fraction(0)) and a < Fraction(1, 3)


def classify(g: FamilyGerm, order: int | None = None) -> SingularityLabel:
    """Sort a family germ into its singularity class.

    k0 != 0 is the smooth first type.  For k0 = 0 the values k1 = 0 and
    k1 = alpha fall outside the two typical types and are reported
    indeterminate at the working order.  Otherwise the modulus a decides:
    2 k1 = 3 alpha (a = 1/3) and k1 = 3 alpha (a = 0) are the degenerate
    H and A branches, whose index is always probed at the working order
    (probe_branch_index); any other value gives the double umbrella with
    the sign of a.
    """
    germ = legendrian_parameterization(g)
    order = resolve_order(germ, order)
    if g.k0 != 0:
        return SingularityLabel(variant="TypeI", germ=germ)
    if g.k1 == 0 or g.k1 == g.alpha:
        return SingularityLabel(variant="IndeterminateAtOrder", order=order, germ=germ)
    a = invariant_a(g)
    applicable = _normal_form_applies(a)
    if 2 * g.k1 == 3 * g.alpha:
        return SingularityLabel(
            "HBranch", a=a, projection_form_applicable=applicable,
            branch=probe_branch_index(germ, "H", order), order=order, germ=germ,
        )
    if g.k1 == 3 * g.alpha:
        return SingularityLabel(
            "ABranch", a=a, projection_form_applicable=applicable,
            branch=probe_branch_index(germ, "A", order), order=order, germ=germ,
        )
    variant = "A1Plus" if a > 0 else "A1Minus"
    return SingularityLabel(
        variant, a=a, projection_form_applicable=applicable, order=order, germ=germ
    )


def fold_form(cap: int = DEFAULT_CAP) -> MapGerm:
    """The fold normal form (xi, t^2, t) of first-type graphs."""
    xi = TruncatedPoly.variable(SOURCE_VARS, "xi", cap)
    t = TruncatedPoly.variable(SOURCE_VARS, "t", cap)
    return MapGerm((xi, t * t, t))


def double_umbrella_form(
    a: RationalLike, b: RationalLike, cap: int = DEFAULT_CAP, validate: bool = True
) -> MapGerm:
    """The two-parameter normal form (xi, t^3 + t^2 xi + a t xi^2, t^2 + b t^3).

    The projection normal form exists for a outside {-1, 0} with a < 1/3;
    pass validate=False to build the map at an excluded a on purpose, for
    example to exhibit how the tangent-space checks fail there.  The cap
    must be at least 3 whatever validate says: a lower cap would drop the
    cubic terms and leave a different map.
    """
    if cap < 3:
        raise ValueError(
            f"the double umbrella form needs cap >= 3 (its cubic terms), got {cap}"
        )
    a = as_fraction(a)
    b = as_fraction(b)
    if validate and not _normal_form_applies(a):
        if a >= Fraction(1, 3):
            raise ValueError(f"a = {a} is out of range (a < 1/3 required)")
        raise ValueError(f"a = {a} is an excluded modulus (a must avoid -1 and 0)")
    xi = TruncatedPoly.variable(SOURCE_VARS, "xi", cap)
    t = TruncatedPoly.variable(SOURCE_VARS, "t", cap)
    second = t**3 + t * t * xi + a * (t * xi * xi)
    third = t * t + b * t**3
    return MapGerm((xi, second, third))
