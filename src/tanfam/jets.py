"""Exact arithmetic on truncated polynomial jets.

A jet is a polynomial with exact rational coefficients in a fixed ordered
variable tuple, truncated at a total-degree cap N: every operation discards
all monomials of total degree greater than N.  The coefficient table is a
dictionary mapping exponent tuples to Fractions,

    xi*t^2 + 3  ->  {(1, 2): Fraction(1), (0, 0): Fraction(3)}

kept in canonical sparse form (no zero coefficients, no exponent tuple
above the cap).  Two canonical jets over the same variables are equal iff
their tables are equal.

The global monomial order is graded lexicographic with the first variable
dominant: monomials sort by total degree, and within a degree the power of
the first variable decreases last-to-first, so for (xi, t) the degree-2
block reads xi^2, xi*t, t^2.  Every flattened coefficient vector in the
package uses this order, which makes ranks and reduced matrices
reproducible byte for byte.

Coefficients must be int, Fraction, or a rational string like "1/5";
floats are rejected so no rounding can leak into rank computations.
Derivatives are returned at the stored cap, but only their terms of degree
<= N-1 are trustworthy; consumers that mix derivatives with other jets
must cap their working degree at N-1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

SOURCE_VARS = ("xi", "t")
TARGET_VARS = ("x", "y", "z")
DEFAULT_CAP = 8

# Float-layer settings the CLI parser needs before any float work.  They
# live here, in a numpy-free module, so commands that never touch the
# float layer never import numpy; geometry re-exports them.
DEFAULT_RESOLUTION = 512
MODE_VERSAL = "versal"
MODE_BEAKS = "beaks"

Exponents = tuple[int, ...]
RationalLike = Union[int, str, Fraction]

_VAR_ALIASES = {"ξ": "xi", "τ": "t"}


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an exact rational input; floats are refused on purpose."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational coefficient")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected int, Fraction, or 'p/q' string, got {type(value).__name__}")


def grlex_key(exponents: Exponents) -> tuple[int, Exponents]:
    """Sort key realizing the global monomial order (first variable dominant)."""
    return (sum(exponents), exponents[::-1])


def monomial_basis(nvars: int, min_degree: int, max_degree: int) -> list[Exponents]:
    """All exponent tuples with min_degree <= total degree <= max_degree, in order.

    For (xi, t) and degrees 2..2 this yields xi^2, xi*t, t^2.
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    if min_degree < 0 or max_degree < min_degree:
        return []
    out: list[Exponents] = []
    for degree in range(min_degree, max_degree + 1):
        out.extend(sorted(_compositions(degree, nvars), key=grlex_key))
    return out


def _compositions(degree: int, nvars: int) -> Iterator[Exponents]:
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree + 1):
        for rest in _compositions(degree - first, nvars - 1):
            yield (first,) + rest


def monomial_text(exponents: Exponents, variables: Sequence[str]) -> str:
    """Render an exponent tuple as e.g. 'xi^2 t'; the constant monomial is '1'."""
    parts = []
    for name, power in zip(variables, exponents):
        if power == 0:
            continue
        parts.append(name if power == 1 else f"{name}^{power}")
    return " ".join(parts) if parts else "1"


class TruncatedPoly:
    """A polynomial jet: exact coefficients, fixed variables, total-degree cap."""

    __slots__ = ("_vars", "_cap", "_coeffs", "_hash")

    def __init__(
        self,
        variables: Sequence[str],
        cap: int,
        coeffs: Mapping[Exponents, RationalLike] | None = None,
    ):
        variables = tuple(variables)
        if not variables:
            raise ValueError("need at least one variable")
        if cap < 1:
            raise ValueError(f"degree cap must be >= 1, got {cap}")
        table: dict[Exponents, Fraction] = {}
        for exponents, raw in (coeffs or {}).items():
            exponents = tuple(exponents)
            if len(exponents) != len(variables):
                raise ValueError(
                    f"exponent tuple {exponents} does not match variables {variables}"
                )
            if any(e < 0 for e in exponents):
                raise ValueError(f"negative exponent in {exponents}")
            if sum(exponents) > cap:
                continue
            value = as_fraction(raw)
            if value != 0:
                table[exponents] = value
        self._vars = variables
        self._cap = cap
        self._coeffs = table
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str], cap: int = DEFAULT_CAP) -> "TruncatedPoly":
        return cls(variables, cap)

    @classmethod
    def constant(
        cls, variables: Sequence[str], value: RationalLike, cap: int = DEFAULT_CAP
    ) -> "TruncatedPoly":
        nvars = len(tuple(variables))
        return cls(variables, cap, {(0,) * nvars: value})

    @classmethod
    def variable(
        cls, variables: Sequence[str], name: str, cap: int = DEFAULT_CAP
    ) -> "TruncatedPoly":
        variables = tuple(variables)
        name = _VAR_ALIASES.get(name, name)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}; have {variables}")
        exponents = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, cap, {exponents: 1})

    @classmethod
    def from_text(
        cls, variables: Sequence[str], text: str, cap: int = DEFAULT_CAP
    ) -> "TruncatedPoly":
        """Parse the canonical text form, e.g. '1 xi t^2 + -1/5 t^3'.

        Accepts '*' or whitespace between factors, an optional leading
        coefficient per term (default 1), and 'a - b' as well as 'a + -b'.
        A term of total degree above the cap raises ValueError rather than
        being truncated away.
        """
        if not isinstance(text, str):
            raise TypeError(f"polynomial text must be a string, got {type(text).__name__}")
        variables = tuple(variables)
        text = text.strip()
        for alias, name in _VAR_ALIASES.items():
            text = text.replace(alias, name)
        if text in ("", "0"):
            return cls.zero(variables, cap)
        table: dict[Exponents, Fraction] = {}
        for term in _split_terms(text):
            coeff, exponents = _parse_term(term, variables)
            exponents = tuple(exponents)
            if sum(exponents) > cap:
                raise ValueError(
                    f"term {term!r} has degree {sum(exponents)}, above the cap {cap}"
                )
            table[exponents] = table.get(exponents, Fraction(0)) + coeff
        return cls(variables, cap, table)

    # -- basic queries -----------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        return self._vars

    @property
    def nvars(self) -> int:
        return len(self._vars)

    @property
    def cap(self) -> int:
        return self._cap

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        """Max total degree of a stored term; -1 for the zero jet."""
        if not self._coeffs:
            return -1
        return max(sum(e) for e in self._coeffs)

    def coefficient(self, exponents: Exponents) -> Fraction:
        return self._coeffs.get(tuple(exponents), Fraction(0))

    def terms(self) -> list[tuple[Exponents, Fraction]]:
        """Stored terms sorted in the global monomial order."""
        return sorted(self._coeffs.items(), key=lambda item: grlex_key(item[0]))

    def constant_term(self) -> Fraction:
        return self._coeffs.get((0,) * self.nvars, Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "TruncatedPoly") -> None:
        if self._vars != other._vars:
            raise ValueError(f"variable sets differ: {self._vars} vs {other._vars}")
        if self._cap != other._cap:
            raise ValueError(f"degree caps differ: {self._cap} vs {other._cap}")

    def __add__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        self._check_compatible(other)
        table = dict(self._coeffs)
        for exponents, value in other._coeffs.items():
            table[exponents] = table.get(exponents, Fraction(0)) + value
        return TruncatedPoly(self._vars, self._cap, table)

    def __sub__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TruncatedPoly":
        return TruncatedPoly(
            self._vars, self._cap, {e: -v for e, v in self._coeffs.items()}
        )

    def __mul__(self, other: "TruncatedPoly | RationalLike") -> "TruncatedPoly":
        if isinstance(other, TruncatedPoly):
            self._check_compatible(other)
            cap = self._cap
            table: dict[Exponents, Fraction] = {}
            for ea, va in self._coeffs.items():
                da = sum(ea)
                for eb, vb in other._coeffs.items():
                    if da + sum(eb) > cap:
                        continue
                    exponents = tuple(a + b for a, b in zip(ea, eb))
                    table[exponents] = table.get(exponents, Fraction(0)) + va * vb
            return TruncatedPoly(self._vars, cap, table)
        scalar = as_fraction(other)
        return TruncatedPoly(
            self._vars, self._cap, {e: v * scalar for e, v in self._coeffs.items()}
        )

    def __rmul__(self, other: RationalLike) -> "TruncatedPoly":
        return self * other

    def __pow__(self, power: int) -> "TruncatedPoly":
        if not isinstance(power, int) or power < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = TruncatedPoly.constant(self._vars, 1, self._cap)
        base = self
        while power:
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    # -- calculus ----------------------------------------------------------

    def derive(self, name: str) -> "TruncatedPoly":
        """Formal partial derivative.

        The result is stored at the same cap, but only its terms of degree
        <= cap-1 carry full information (the cap-degree terms of self had
        no degree-(cap+1) neighbours to receive from).
        """
        name = _VAR_ALIASES.get(name, name)
        if name not in self._vars:
            raise ValueError(f"unknown variable {name!r}; have {self._vars}")
        index = self._vars.index(name)
        table: dict[Exponents, Fraction] = {}
        for exponents, value in self._coeffs.items():
            power = exponents[index]
            if power == 0:
                continue
            lowered = exponents[:index] + (power - 1,) + exponents[index + 1 :]
            table[lowered] = table.get(lowered, Fraction(0)) + value * power
        return TruncatedPoly(self._vars, self._cap, table)

    def jet(self, order: int) -> "TruncatedPoly":
        """Drop all terms of total degree > order (total function: clamps)."""
        if order >= self._cap:
            return self
        if order < 0:
            return TruncatedPoly.zero(self._vars, self._cap)
        table = {e: v for e, v in self._coeffs.items() if sum(e) <= order}
        return TruncatedPoly(self._vars, self._cap, table)

    def with_cap(self, cap: int) -> "TruncatedPoly":
        """Reinterpret at a new cap, discarding terms above it."""
        return TruncatedPoly(self._vars, cap, self._coeffs)

    def evaluate(self, values: Sequence) -> Fraction | float:
        """Evaluate at a point; exact when all inputs are Fraction/int."""
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(values)}")
        total = 0
        for exponents, coeff in self._coeffs.items():
            term = coeff
            for power, v in zip(exponents, values):
                if power:
                    term = term * v**power
            total = total + term
        if isinstance(total, int):
            return Fraction(total)
        return total

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return self._vars == other._vars and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._vars, frozenset(self._coeffs.items())))
        return self._hash

    def to_text(self) -> str:
        """Canonical text form: terms in the global monomial order."""
        if not self._coeffs:
            return "0"
        parts = []
        for exponents, coeff in self.terms():
            mono = monomial_text(exponents, self._vars)
            if mono == "1":
                parts.append(str(coeff))
            else:
                parts.append(f"{coeff} {mono}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TruncatedPoly({self.to_text()!r}, vars={self._vars}, cap={self._cap})"


def compose(g: TruncatedPoly, components: "Sequence[TruncatedPoly] | MapGerm") -> TruncatedPoly:
    """Substitute one jet per variable of g; the pullback g o f.

    Each component must vanish at the origin (otherwise the substituted
    series would need terms beyond any finite cap to be correct), and all
    components must share variables and cap, which the result inherits.
    """
    comps = list(components)
    if len(comps) != g.nvars:
        raise ValueError(f"{g.nvars} variables to substitute but {len(comps)} components")
    if not comps:
        raise ValueError("nothing to substitute into")
    base = comps[0]
    for comp in comps:
        base._check_compatible(comp)
        if comp.constant_term() != 0:
            raise ValueError("composition requires components vanishing at the origin")
    cap = base.cap
    # Powers of each component, filled on demand up to the largest exponent used.
    powers: list[list[TruncatedPoly]] = [
        [TruncatedPoly.constant(base.variables, 1, cap)] for _ in comps
    ]

    def power(i: int, n: int) -> TruncatedPoly:
        while len(powers[i]) <= n:
            powers[i].append(powers[i][-1] * comps[i])
        return powers[i][n]

    result = TruncatedPoly.zero(base.variables, cap)
    for exponents, coeff in g.terms():
        term = TruncatedPoly.constant(base.variables, coeff, cap)
        for i, e in enumerate(exponents):
            if e:
                term = term * power(i, e)
        result = result + term
    return result


class MapGerm:
    """An ordered pair or triple of source jets vanishing at the origin.

    Models a map germ (R^2, 0) -> (R^2, 0) or (R^2, 0) -> (R^3, 0); all
    components share the same variables and cap.
    """

    __slots__ = ("_components",)

    def __init__(self, components: Sequence[TruncatedPoly]):
        comps = tuple(components)
        if len(comps) not in (2, 3):
            raise ValueError(f"a map germ has 2 or 3 components, got {len(comps)}")
        first = comps[0]
        for comp in comps:
            first._check_compatible(comp)
            if comp.constant_term() != 0:
                raise ValueError("map germ components must vanish at the origin")
        self._components = comps

    @property
    def components(self) -> tuple[TruncatedPoly, ...]:
        return self._components

    @property
    def arity(self) -> int:
        return len(self._components)

    @property
    def cap(self) -> int:
        return self._components[0].cap

    @property
    def variables(self) -> tuple[str, ...]:
        return self._components[0].variables

    def planar_projection(self) -> "MapGerm":
        """The first two components, i.e. the germ composed with (x, y, z) -> (x, y)."""
        if self.arity == 2:
            return self
        return MapGerm(self._components[:2])

    def to_texts(self) -> tuple[str, ...]:
        return tuple(c.to_text() for c in self._components)

    def __iter__(self) -> Iterator[TruncatedPoly]:
        return iter(self._components)

    def __getitem__(self, index: int) -> TruncatedPoly:
        return self._components[index]

    def __len__(self) -> int:
        return len(self._components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MapGerm):
            return NotImplemented
        return self._components == other._components

    def __hash__(self) -> int:
        return hash(self._components)

    def __repr__(self) -> str:
        return f"MapGerm{self.to_texts()!r}"


# -- text parsing helpers ---------------------------------------------------

def _split_terms(text: str) -> list[str]:
    # Rewrite every additive +/- into '+' followed by a signed term, then split.
    out: list[str] = []
    current: list[str] = []
    tokens = text.replace("*", " ").split()
    for token in tokens:
        if token == "+":
            if current:
                out.append(" ".join(current))
                current = []
        elif token == "-":
            if current:
                out.append(" ".join(current))
            current = ["-"]
        else:
            # Signs glued to the front of a token ("+3/2", "-xi") start a term
            # only when a '+'/'-' separator token precedes; glued '-' inside a
            # coefficient like "-1/5" is handled by Fraction parsing below.
            current.append(token)
    if current:
        out.append(" ".join(current))
    return [t for t in out if t and t != "-"]


def _parse_term(term: str, variables: tuple[str, ...]) -> tuple[Fraction, list[int]]:
    tokens = term.split()
    sign = Fraction(1)
    if tokens and tokens[0] == "-":
        sign = Fraction(-1)
        tokens = tokens[1:]
    coeff = Fraction(1)
    exponents = [0] * len(variables)
    seen_coeff = False
    for token in tokens:
        name, _, power_text = token.partition("^")
        if name in variables:
            power = int(power_text) if power_text else 1
            if power < 0:
                raise ValueError(f"negative exponent in term {term!r}")
            exponents[variables.index(name)] += power
            continue
        if seen_coeff:
            raise ValueError(f"cannot parse factor {token!r} in term {term!r}")
        try:
            coeff = Fraction(token)
        except ValueError as exc:
            raise ValueError(f"cannot parse factor {token!r} in term {term!r}") from exc
        seen_coeff = True
    return sign * coeff, exponents
