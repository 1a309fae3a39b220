"""Independent sympy oracle for tangent-space ranks and membership.

Rebuilds the generator matrices with sympy polynomial arithmetic and
ranks them with sympy's rational linear algebra, sharing no code with
the package beyond reading germ components as text.  Used to cross-check
the production builder on the germs the test suite cares most about.
Reduced echelon forms come from a plain dense Fraction Gauss-Jordan
(reduced_echelon), which shares no code with tanfam.linalg either.
The deformed double umbrella and its criminant are built from their
formulas in sympy (deformed_double_umbrella, criminant).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm

import sympy as sp
from sympy.polys.matrices import DomainMatrix

XI, T = sp.symbols("xi t")


def parse_component(text: str) -> sp.Expr:
    """Read the package's canonical text form into a sympy expression.

    Terms are joined by " + " and factors inside a term by single spaces,
    e.g. "-1/2 xi^2 t + 1 t^3".
    """
    cleaned = text.replace(" + ", "+").replace(" ", "*").replace("^", "**")
    return sp.sympify(cleaned or "0", locals={"xi": XI, "t": T})


def _truncate(expr: sp.Expr, order: int) -> sp.Poly:
    poly = sp.Poly(sp.expand(expr), XI, T)
    kept = {
        monom: coeff
        for monom, coeff in poly.terms()
        if sum(monom) <= order
    }
    return sp.Poly.from_dict(kept, XI, T) if kept else sp.Poly(0, XI, T)


def _source_monomials(order: int, min_degree: int = 0):
    for i, j in product(range(order + 1), repeat=2):
        if min_degree <= i + j <= order:
            yield i, j


def _flatten(triple, monomials, order) -> list:
    row = []
    for expr in triple:
        poly = _truncate(expr, order)
        table = dict(poly.terms())
        for monom in monomials:
            row.append(table.get(monom, sp.Integer(0)))
    return row


def tangent_rows(
    comps: list[sp.Expr],
    order: int,
    kind: str = "A-star",
    reduced: bool = False,
    source_min_degree: int = 2,
) -> tuple[list[list], list[tuple[int, int]]]:
    """Generator matrix rows for the tangent space of an n-component germ.

    n = len(comps) is 2 or 3.  Under "A" every slot takes functions of
    all n target variables; under "A-star" slots 1 to n - 1 take functions
    of the first n - 1 only.  The reduced space (M*) is for n = 3.
    """
    n = len(comps)
    monomials = sorted(_source_monomials(order), key=lambda m: (m[0] + m[1], m))
    rows = []
    min_deg = source_min_degree if reduced else 0
    for var in (XI, T):
        partials = [sp.diff(c, var) for c in comps]
        for i, j in _source_monomials(order, min_deg):
            mono = XI**i * T**j
            rows.append(_flatten([mono * p for p in partials], monomials, order))

    def target_monomials(nvars: int, min_degree: int = 0) -> list[tuple[int, ...]]:
        return [
            m for m in product(range(order + 1), repeat=nvars) if min_degree <= sum(m) <= order
        ]

    if reduced:
        planar_sq, spatial_sq = target_monomials(2, 2), target_monomials(3, 2)
        slot_monomials = [
            [(0, 1)] + planar_sq,
            [(1, 0)] + planar_sq,
            [(1, 0, 0), (0, 1, 0)] + spatial_sq,
        ]
    else:
        full = target_monomials(n)
        fibered = full if kind == "A" else target_monomials(n - 1)
        slot_monomials = [fibered] * (n - 1) + [full]

    pulls: dict[tuple[int, ...], sp.Expr] = {}  # shared by the slots
    for slot, monos in enumerate(slot_monomials):
        for exponents in monos:
            key = tuple(exponents) + (0,) * (n - len(exponents))
            if key not in pulls:
                pulled = sp.Integer(1)
                for comp, e in zip(comps, exponents):
                    if e:
                        pulled = _truncate(pulled * comp**e, order).as_expr()
                pulls[key] = pulled
            pulled = pulls[key]
            vector = [sp.Integer(0)] * n
            vector[slot] = pulled
            rows.append(_flatten(vector, monomials, order))
    return rows, monomials


def sympy_rank(
    comps: list[sp.Expr],
    order: int,
    kind: str = "A-star",
    reduced: bool = False,
    source_min_degree: int = 2,
) -> int:
    rows, _ = tangent_rows(comps, order, kind, reduced, source_min_degree)
    return sp.Matrix(rows).rank()


def sympy_contains_each(
    comps: list[sp.Expr],
    order: int,
    triples: list[list[sp.Expr]],
    kind: str = "A-star",
    reduced: bool = False,
    caps: tuple[int, int, int] | None = None,
) -> list[bool]:
    """Membership of each jet vector (one jet per slot) via augmented-rank
    comparison.

    With caps = (p, q, r), the unit rows of the slot-s monomials above
    degree caps[s] join the generator rows first, so membership is read
    modulo those monomials.
    """
    rows, monomials = tangent_rows(comps, order, kind, reduced)
    if caps is not None:
        width = len(comps) * len(monomials)
        for slot, limit in enumerate(caps):
            for i, monom in enumerate(monomials):
                if sum(monom) > limit:
                    unit = [sp.Integer(0)] * width
                    unit[slot * len(monomials) + i] = sp.Integer(1)
                    rows.append(unit)

    def rank(matrix_rows: list[list]) -> int:
        return DomainMatrix.from_Matrix(sp.Matrix(matrix_rows)).convert_to(sp.QQ).rank()

    base_rank = rank(rows)
    return [rank(rows + [_flatten(t, monomials, order)]) == base_rank for t in triples]


def sympy_contains(
    comps: list[sp.Expr],
    order: int,
    triple: list[sp.Expr],
    kind: str = "A-star",
    reduced: bool = False,
) -> bool:
    """Membership of a jet triple via augmented-rank comparison."""
    return sympy_contains_each(comps, order, [triple], kind, reduced)[0]


def reduced_echelon(rows: list[list]) -> list[list[int]]:
    """The reduced row echelon form of rows by dense Fraction Gauss-Jordan.

    Each row is rescaled to integers with no common factor and a positive
    pivot entry; rows come in pivot-column order, zero rows dropped.
    """
    width = len(rows[0]) if rows else 0
    basis: dict[int, list[Fraction]] = {}  # pivot column -> row with pivot entry 1
    support: dict[int, list[int]] = {}  # pivot column -> nonzero columns of its row

    def subtract(row: list[Fraction], factor: Fraction, pivot: int) -> None:
        pivot_row = basis[pivot]
        for j in support[pivot]:
            row[j] -= factor * pivot_row[j]

    for raw in rows:
        row = [Fraction(str(value)) if value else Fraction(0) for value in raw]
        for pivot in basis:
            if row[pivot]:
                subtract(row, row[pivot], pivot)
        col = next((j for j in range(width) if row[j]), None)
        if col is None:
            continue
        lead = row[col]
        basis[col] = [value / lead for value in row]
        support[col] = [j for j in range(width) if row[j]]
        for other, other_row in basis.items():
            if other != col and other_row[col]:
                subtract(other_row, other_row[col], col)
                support[other] = [j for j in range(width) if other_row[j]]
    out = []
    for col in sorted(basis):
        row = basis[col]
        scale = lcm(*(value.denominator for value in row))
        integers = [int(value * scale) for value in row]
        common = gcd(*integers)
        out.append([value // common for value in integers])
    return out


def deformed_double_umbrella(a, b, lam, mu1, mu2) -> tuple[sp.Expr, sp.Expr]:
    """The planar map (f1 + mu1 f3, f2 + lam t + mu2 f3) of the double
    umbrella (f1, f2, f3) = (xi, t^3 + t^2 xi + a t xi^2, t^2 + b t^3),
    at exact rational parameters (int, Fraction or sympy Rational)."""
    a, b, lam, mu1, mu2 = (sp.Rational(str(v)) for v in (a, b, lam, mu1, mu2))
    f1, f2, f3 = XI, T**3 + T**2 * XI + a * T * XI**2, T**2 + b * T**3
    return sp.expand(f1 + mu1 * f3), sp.expand(f2 + lam * T + mu2 * f3)


def criminant(x: sp.Expr, y: sp.Expr) -> sp.Expr:
    """D = x_xi y_t - x_t y_xi, the Jacobian determinant of (x, y), untruncated."""
    return sp.expand(sp.diff(x, XI) * sp.diff(y, T) - sp.diff(x, T) * sp.diff(y, XI))


# Rieger's normal forms of germs (R^2, 0) -> (R^2, 0) with their
# A_e-codimensions (J. H. Rieger, J. London Math. Soc. (2) 36 (1987)
# 351-369), as component texts in (xi, t) = (x, y).
RIEGER_FORMS = {
    "fold": (("1 xi", "1 t^2"), 0),
    "cusp": (("1 xi", "1 xi t + 1 t^3"), 0),
    "lips": (("1 xi", "1 t^3 + 1 xi^2 t"), 1),
    "beaks": (("1 xi", "1 t^3 + -1 xi^2 t"), 1),
    "swallowtail": (("1 xi", "1 xi t + 1 t^4"), 1),
    "goose": (("1 xi", "1 t^3 + 1 xi^3 t"), 2),
    "butterfly": (("1 xi", "1 xi t + 1 t^5 + 1 t^7"), 2),
    "gulls": (("1 xi", "1 xi t^2 + 1 t^4 + 1 t^5"), 2),
    "4_4": (("1 xi", "1 t^3 + 1 xi^4 t"), 3),
}

# Mond's normal forms of simple germs (R^2, 0) -> (R^3, 0) with their
# A_e-codimensions (D. Mond, Proc. London Math. Soc. (3) 50 (1985)
# 333-369), as component texts in (xi, t) = (x, y).  S_1^+- is the double
# Whitney umbrella, S_0 the cross-cap; P_3 has a modulus c, taken at two
# values.
MOND_FORMS = {
    "S_0": (("1 xi", "1 t^2", "1 xi t"), 0),
    "S_1+": (("1 xi", "1 t^2", "1 t^3 + 1 xi^2 t"), 1),
    "S_1-": (("1 xi", "1 t^2", "1 t^3 + -1 xi^2 t"), 1),
    "S_2": (("1 xi", "1 t^2", "1 t^3 + 1 xi^3 t"), 2),
    "S_3": (("1 xi", "1 t^2", "1 t^3 + 1 xi^4 t"), 3),
    "B_2": (("1 xi", "1 t^2", "1 xi^2 t + 1 t^5"), 2),
    "B_3": (("1 xi", "1 t^2", "1 xi^2 t + 1 t^7"), 3),
    "C_3": (("1 xi", "1 t^2", "1 xi t^3 + 1 xi^3 t"), 3),
    "F_4": (("1 xi", "1 t^2", "1 xi^3 t + 1 t^5"), 4),
    "H_2": (("1 xi", "1 t^3", "1 xi t + 1 t^5"), 2),
    "H_3": (("1 xi", "1 t^3", "1 xi t + 1 t^8"), 3),
    "H_4": (("1 xi", "1 t^3", "1 xi t + 1 t^11"), 4),
    "P_3(c=2)": (("1 xi", "1 xi t + 1 t^3", "1 xi t^2 + 2 t^4"), 4),
    "P_3(c=1/3)": (("1 xi", "1 xi t + 1 t^3", "1 xi t^2 + 1/3 t^4"), 4),
}
