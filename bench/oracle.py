"""Independent exact oracle for the benchmark's output checks.

Nothing here imports tanfam.  Polynomials are plain dicts mapping
exponent tuples to Fractions; generator matrices are rebuilt from the
definitions of the tangent spaces; ranks and memberships are decided
with this module's own elimination.

``Echelon`` is an exact incremental elimination over the integers with
the row content divided out at every step; ``reduced_echelon`` turns it
into the unique reduced echelon form, which the program's canonical
matrices must equal.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Poly = dict  # exponent tuple -> Fraction

# -- monomials in the program's documented order ---------------------------


def monomials(nvars: int, low: int, high: int) -> list[tuple[int, ...]]:
    """Degree blocks from low to high; within a block, ascending by the
    reversed exponent tuple (so (xi, t) degree 2 reads xi^2, xi t, t^2)."""
    out = []
    for degree in range(low, high + 1):
        block = [e for e in _tuples(nvars, degree)]
        block.sort(key=lambda e: e[::-1])
        out.extend(block)
    return out


def _tuples(nvars: int, degree: int):
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree + 1):
        for rest in _tuples(nvars - 1, degree - first):
            yield (first,) + rest


# -- polynomial arithmetic ---------------------------------------------------


def poly(terms) -> Poly:
    out: Poly = {}
    for e, c in terms:
        c = Fraction(c)
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def mul(a: Poly, b: Poly, order: int) -> Poly:
    out: Poly = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            if i + j + k + l <= order:
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + c * d
    return {e: c for e, c in out.items() if c}


def derive(a: Poly, var: int) -> Poly:
    out: Poly = {}
    for e, c in a.items():
        if e[var]:
            lowered = (e[0] - 1, e[1]) if var == 0 else (e[0], e[1] - 1)
            out[lowered] = c * e[var]
    return out


def shift(u: Poly, order: int) -> Poly:
    """u(xi - t, t), expanded binomially and truncated."""
    out: Poly = {}
    for (i, j), c in u.items():
        binom = 1
        for k in range(i + 1):
            # term C(i, k) xi^(i-k) (-t)^k t^j
            if i + j <= order:
                key = (i - k, j + k)
                out[key] = out.get(key, 0) + c * binom * (-1) ** k
            binom = binom * (i - k) // (k + 1)
    return {e: c for e, c in out.items() if c}


def legendrian(u: Poly, cap: int) -> tuple[Poly, Poly, Poly]:
    """(xi, u(xi - t, t), u_t(xi - t, t)): the lifted graph germ."""
    return ({(1, 0): Fraction(1)}, shift(u, cap), shift(derive(u, 1), cap))


def double_umbrella(a, b) -> tuple[Poly, Poly, Poly]:
    a, b = Fraction(a), Fraction(b)
    return (
        {(1, 0): Fraction(1)},
        poly([((0, 3), 1), ((1, 2), 1), ((2, 1), a)]),
        poly([((0, 2), 1), ((0, 3), b)]),
    )


def fold() -> tuple[Poly, Poly, Poly]:
    return ({(1, 0): Fraction(1)}, {(0, 2): Fraction(1)}, {(0, 1): Fraction(1)})


def parse_text(text: str) -> Poly:
    """Read the program's canonical text form: '-1/2 xi^2 t + 1 t^3'."""
    if text.strip() == "0":
        return {}
    out: Poly = {}
    for term in text.split(" + "):
        tokens = term.split()
        coeff = Fraction(tokens[0])
        e = [0, 0]
        for token in tokens[1:]:
            name, _, power = token.partition("^")
            e[{"xi": 0, "t": 1}[name]] += int(power) if power else 1
        out[tuple(e)] = out.get(tuple(e), 0) + coeff
    return {e: c for e, c in out.items() if c}


def render_text(p: Poly) -> str:
    """Write a polynomial in the input text form, e.g. '1 xi t^2 + -2 t^3'."""
    if not p:
        return "0"
    parts = []
    for (i, j), c in sorted(p.items(), key=lambda item: (sum(item[0]), item[0][::-1])):
        factors = [name if power == 1 else f"{name}^{power}"
                   for name, power in (("xi", i), ("t", j)) if power]
        parts.append(f"{c} {' '.join(factors)}".strip())
    return " + ".join(parts)


# -- generator matrices --------------------------------------------------------


def generators(comps, order: int, kind: str) -> list[list[Fraction]]:
    """Generator rows of a tangent space at a working order.

    kind "A-star": all source multipliers, pullbacks of (x, y) monomials
    in slots 1 and 2 and of (x, y, z) monomials in slot 3.  kind "A": (x,
    y, z) pullbacks in every slot.  kind "reduced": source multipliers of
    degree >= 2 and the module {y} + m^2, {x} + m^2, {x, y} + m^2.
    """
    cols = monomials(2, 0, order)
    index = {e: k for k, e in enumerate(cols)}
    width = len(cols)
    comps = [dict(c) for c in comps]

    def flat(slots):
        row = [Fraction(0)] * (3 * width)
        for s, p in enumerate(slots):
            for e, c in p.items():
                if sum(e) <= order:
                    row[s * width + index[e]] = c
        return row

    rows = []
    low = 2 if kind == "reduced" else 0
    for var in (0, 1):
        partial = [derive(c, var) for c in comps]
        for m in monomials(2, low, order):
            mono = {m: Fraction(1)}
            rows.append(flat([mul(mono, p, order) for p in partial]))
    planar = monomials(2, 0, order)
    spatial = monomials(3, 0, order)
    if kind == "A-star":
        slots = (planar, planar, spatial)
    elif kind == "A":
        slots = (spatial, spatial, spatial)
    elif kind == "reduced":
        sq2 = monomials(2, 2, order)
        sq3 = monomials(3, 2, order)
        slots = ([(0, 1)] + sq2, [(1, 0)] + sq2, [(1, 0, 0), (0, 1, 0)] + sq3)
    else:
        raise ValueError(kind)
    powers = [[{(0, 0): Fraction(1)}] for _ in comps]

    def power(i, n):
        while len(powers[i]) <= n:
            powers[i].append(mul(powers[i][-1], comps[i], order))
        return powers[i][n]

    for slot, monos in enumerate(slots):
        for m in monos:
            pulled = {(0, 0): Fraction(1)}
            for i, e in enumerate(m):
                if e:
                    pulled = mul(pulled, power(i, e), order)
            placed = [{}, {}, {}]
            placed[slot] = pulled
            rows.append(flat(placed))
    return rows


def flat_triple(slots, order: int) -> list[Fraction]:
    """A jet triple as a slot-major row over the monomials up to order."""
    cols = monomials(2, 0, order)
    return [Fraction(p.get(e, 0)) for p in slots for e in cols]


# -- exact elimination ---------------------------------------------------------


def integer_row(row) -> list[int]:
    den = 1
    for v in row:
        den = lcm(den, Fraction(v).denominator)
    return [int(Fraction(v) * den) for v in row]


class Echelon:
    """Exact incremental echelon basis of sparse integer rows."""

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row) -> dict[int, int]:
        current = {k: v for k, v in enumerate(integer_row(row)) if v}
        while current:
            col = min(current)
            pivot = self.rows.get(col)
            if pivot is None:
                return current
            a, b = pivot[col], current[col]
            g = gcd(a, b)
            fa, fb = a // g, b // g
            merged = {k: fa * v for k, v in current.items()}
            for k, v in pivot.items():
                merged[k] = merged.get(k, 0) - fb * v
            current = {k: v for k, v in merged.items() if v}
            content = 0
            for v in current.values():
                content = gcd(content, v)
            if content > 1:
                current = {k: v // content for k, v in current.items()}
        return current

    def add(self, row) -> bool:
        residual = self.reduce(row)
        if not residual:
            return False
        self.rows[min(residual)] = residual
        return True

    def contains(self, row) -> bool:
        return not self.reduce(row)

    def pivots(self) -> list[int]:
        return sorted(self.rows)


def reduced_echelon(space: Echelon, width: int) -> list[list[int]]:
    """The unique reduced echelon form of a space: primitive integer rows,
    positive leading entries, every pivot column cleared in other rows."""
    cols = space.pivots()
    rows = [dict(space.rows[c]) for c in cols]
    for i in range(len(rows) - 1, -1, -1):
        col = cols[i]
        for k in range(i):
            b = rows[k].get(col)
            if not b:
                continue
            a = rows[i][col]
            g = gcd(a, b)
            merged = {j: (a // g) * v for j, v in rows[k].items()}
            for j, v in rows[i].items():
                merged[j] = merged.get(j, 0) - (b // g) * v
            rows[k] = {j: v for j, v in merged.items() if v}
    out = []
    for row in rows:
        content = 0
        for v in row.values():
            content = gcd(content, v)
        sign = 1 if row[min(row)] > 0 else -1
        dense = [0] * width
        for j, v in row.items():
            dense[j] = sign * v // content
        out.append(dense)
    return out


def space_of(rows) -> Echelon:
    space = Echelon()
    for row in rows:
        space.add(row)
    return space


def unit(width: int, column: int) -> list[int]:
    row = [0] * width
    row[column] = 1
    return row


def rref_unit_members(matrix) -> set[int]:
    """Columns j whose unit vector lies in the span of a reduced echelon matrix."""
    out = set()
    for row in matrix:
        nz = [k for k, v in enumerate(row) if v]
        if len(nz) == 1:
            out.add(nz[0])
    return out
