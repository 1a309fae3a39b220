"""Exact arithmetic on truncated polynomial jets.

A jet is a polynomial with exact rational coefficients in a fixed ordered
variable tuple, truncated at a total-degree cap N: every operation discards
all monomials of total degree greater than N.  It is stored as integer
numerators over one positive common denominator,

    xi*t^2/2 + 3  ->  numerators {(1, 2): 1, (0, 0): 6}, denominator 2

in canonical form: no zero numerator, no exponent tuple above the cap, and
the gcd of the denominator and all numerators is 1 (the zero jet has
denominator 1).  Two jets over the same variables are equal iff their
denominators and numerator tables are equal; the cap is not compared.
coefficient() and terms() hand out Fractions.

All arithmetic runs on integer tables (exponents -> nonzero int) through
two kernels, truncated_product and partial_derivative, and monomial
pullbacks are memoized products (pullback).  The tangent-space builders
call the same kernels on numerators taken over one shared denominator
(shared_numerators), so there is one implementation of each.

The global monomial order is graded lexicographic with the first variable
dominant: monomials sort by total degree, and within a degree the power of
the first variable decreases last-to-first, so for (xi, t) the degree-2
block reads xi^2, xi*t, t^2.  Every flattened coefficient vector in the
package uses this order, which makes ranks and reduced matrices
reproducible byte for byte.

Coefficients must be int, Fraction, or a rational string like "1/5";
floats are rejected so no rounding can leak into rank computations, and
an int or a string above _INPUT_DIGITS digits in its numerator or
denominator is refused before any arithmetic on it.  deform is the one
place a float enters: a deformation parameter is taken as the exact
value of the float, so the deformed map it forms is exact too, as is
its criminant D (criminant); the float layer converts a finished map.
Derivatives are returned at the stored cap, but only their terms of degree
<= N-1 are trustworthy; consumers that mix derivatives with other jets
must cap their working degree at N-1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isfinite, lcm
from operator import add
from typing import Iterator, Mapping, Sequence, Union

SOURCE_VARS = ("xi", "t")
TARGET_VARS = ("x", "y", "z")
DEFAULT_CAP = 8

# selfcheck's defaults, here so the CLI parser does not load selfcheck.
DEFAULT_ROUNDS = 1000
DEFAULT_ORACLE_SAMPLES = 20

# Float-layer settings the CLI parser needs before any float work.  They
# live here, in a numpy-free module, so commands that never touch the
# float layer never import numpy; geometry re-exports them.
DEFAULT_RESOLUTION = 512
MODE_VERSAL = "versal"
MODE_BEAKS = "beaks"


def check_grid_rectangle(xi_min: float, xi_max: float, t_min: float, t_max: float) -> None:
    """Refuse a sampling rectangle with a bound that is not finite, or with
    no area; GridSpec and the CLI's --domain parser both apply this rule."""
    if not all(isfinite(bound) for bound in (xi_min, xi_max, t_min, t_max)):
        raise ValueError("grid rectangle bounds must be finite")
    if not (xi_min < xi_max and t_min < t_max):
        raise ValueError("grid rectangle is degenerate")


Exponents = tuple[int, ...]
RationalLike = Union[int, str, Fraction]
# Integer numerators of a jet: exponents -> nonzero int.
IntTable = dict[Exponents, int]

_VAR_ALIASES = {"ξ": "xi", "τ": "t"}


def _variable_index(variables: tuple[str, ...], name: str) -> int:
    """Position of a variable, given by name or by its alias (ξ, τ)."""
    name = _VAR_ALIASES.get(name, name)
    if name not in variables:
        raise ValueError(f"unknown variable {name!r}; have {variables}")
    return variables.index(name)


# Most decimal digits the numerator or the denominator of an input number
# may have.  classify prints the modulus a, whose numerator and
# denominator have up to four times the digits of k1 and alpha; at this
# bound they stay below the 4300 digits the interpreter turns into text.
_INPUT_DIGITS = 1000
_INPUT_LIMIT = 10**_INPUT_DIGITS


def _written_digits(text: str) -> int:
    """Digits of the numerator or the denominator of a number text,
    whichever has more, counted on the text before any integer is built.

    'p/q' has the digits of p and q; a decimal 'm.fEx' has those of m and
    f shifted by the exponent x, so '1e999' and '1e-999' both count 1000.
    Leading zeros do not count.  Text that is no number counts what it
    can; Fraction refuses it afterwards.
    """
    mantissa, _, exponent = text.strip().lower().partition("e")
    try:
        shift = int(exponent or 0)
    except ValueError:
        shift = 0
    numerator, _, denominator = mantissa.partition("/")
    whole, _, decimals = numerator.partition(".")
    places = sum(ch.isdigit() for ch in decimals) - shift  # mantissa / 10**places
    digits = sum(ch.isdigit() for ch in (whole + decimals).lstrip("+-0_"))
    return max(
        digits - min(places, 0), places + 1, sum(ch.isdigit() for ch in denominator.lstrip("0_"))
    )


def _shorten(text: str) -> str:
    """Text for an error line: its two ends when it is long."""
    return text if len(text) <= 40 else f"{text[:24]}...{text[-12:]}"


def _check_digits(text: str, where: str = "") -> None:
    """Refuse a number text above _INPUT_DIGITS digits; where names its place."""
    if _written_digits(text) > _INPUT_DIGITS:
        raise ValueError(
            f"number {_shorten(text)!r}{where} has more than {_INPUT_DIGITS} digits "
            "in its numerator or denominator"
        )


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an exact rational input; floats are refused on purpose, and
    an int or a text above _INPUT_DIGITS digits too."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational coefficient")
    if isinstance(value, int):
        if abs(value) >= _INPUT_LIMIT:
            raise ValueError(f"an integer has more than {_INPUT_DIGITS} digits")
        return Fraction(value)
    if isinstance(value, str):
        _check_digits(value)
        return Fraction(value)
    raise TypeError(f"expected int, Fraction, or 'p/q' string, got {type(value).__name__}")


def grlex_key(exponents: Exponents) -> tuple[int, Exponents]:
    """Sort key realizing the global monomial order (first variable dominant)."""
    return (sum(exponents), exponents[::-1])


def monomial_basis(nvars: int, min_degree: int, max_degree: int) -> list[Exponents]:
    """All exponent tuples with min_degree <= total degree <= max_degree, in order.

    For (xi, t) and degrees 2..2 this yields xi^2, xi*t, t^2.  Each call
    returns a new list.
    """
    return list(_monomial_tuple(nvars, min_degree, max_degree))


@lru_cache(maxsize=64)
def _monomial_tuple(nvars: int, min_degree: int, max_degree: int) -> tuple[Exponents, ...]:
    """monomial_basis as a tuple, built once per set of arguments.

    The tangent builders ask for the same few lists several times per
    build, so they read this shared, immutable copy.
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    if min_degree < 0 or max_degree < min_degree:
        return ()
    out: list[Exponents] = []
    for degree in range(min_degree, max_degree + 1):
        out.extend(sorted(_compositions(degree, nvars), key=grlex_key))
    return tuple(out)


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


def truncated_product(a: IntTable, b: IntTable, order: int) -> IntTable:
    """a * b with the terms of total degree > order dropped."""
    out: IntTable = {}
    for ea, va in a.items():
        room = order - sum(ea)
        for eb, vb in b.items():
            if sum(eb) <= room:
                e = tuple(map(add, ea, eb))
                out[e] = out.get(e, 0) + va * vb
    return {e: v for e, v in out.items() if v}


def partial_derivative(table: IntTable, index: int) -> IntTable:
    """Formal partial derivative in the variable at index."""
    return {
        e[:index] + (e[index] - 1,) + e[index + 1 :]: v * e[index]
        for e, v in table.items()
        if e[index]
    }


def pullback(
    md: Exponents, memo: dict[Exponents, IntTable], comps: Sequence[IntTable], order: int
) -> IntTable:
    """The product of comps[i]^md[i] truncated at order, memoized in memo
    (which holds the zero tuple), as pull(md / v) * comps[v] for the last
    variable v of md.

    A module function, not a closure over memo: a recursive closure is a
    reference cycle, which would keep the memo alive until the cyclic
    garbage collector ran.
    """
    table = memo.get(md)
    if table is None:
        i = max(k for k, e in enumerate(md) if e)
        lower = pullback(md[:i] + (md[i] - 1,) + md[i + 1 :], memo, comps, order)
        table = memo[md] = truncated_product(lower, comps[i], order)
    return table


def shared_numerators(polys: Sequence[TruncatedPoly], order: int) -> tuple[int, list[IntTable]]:
    """One positive common denominator d of polys, and each poly times d as
    an integer table, truncated at order."""
    den = lcm(*(p._den for p in polys))
    return den, [
        {e: v * (den // p._den) for e, v in p._num.items() if sum(e) <= order} for p in polys
    ]


def _canonical(variables: tuple[str, ...], cap: int, num: IntTable, den: int) -> TruncatedPoly:
    """The canonical jet num / den (nonzero numerators of degree <= cap, den > 0)."""
    g = gcd(den, *num.values())
    if g != 1:
        num = {e: v // g for e, v in num.items()}
        den //= g
    jet = object.__new__(TruncatedPoly)
    jet._vars, jet._cap, jet._num, jet._den = variables, cap, num, den
    return jet


class TruncatedPoly:
    """A polynomial jet: exact coefficients, fixed variables, total-degree cap."""

    __slots__ = ("_vars", "_cap", "_num", "_den")

    def __init__(
        self,
        variables: Sequence[str],
        cap: int,
        coeffs: Mapping[Exponents, RationalLike] | None = None,
    ):
        variables = tuple(variables)
        if not variables:
            raise ValueError("need at least one variable")
        if len({_VAR_ALIASES.get(v, v) for v in variables}) < len(variables):
            raise ValueError(f"variables {variables} name one variable twice")
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
        # Over the lcm of reduced denominators the numerators share no factor with it.
        den = lcm(*(v.denominator for v in table.values()))
        self._vars = variables
        self._cap = cap
        self._num = {e: v.numerator * (den // v.denominator) for e, v in table.items()}
        self._den = den

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
        name = variables[_variable_index(variables, name)]
        exponents = tuple(int(v == name) for v in variables)
        return cls(variables, cap, {exponents: 1})

    @classmethod
    def from_text(
        cls, variables: Sequence[str], text: str, cap: int = DEFAULT_CAP
    ) -> "TruncatedPoly":
        """Parse the canonical text form, e.g. '1 xi t^2 + -1/5 t^3'.

        Accepts '*' or whitespace between factors, an optional leading
        coefficient per term (default 1), and 'a - b' as well as 'a + -b'.
        A separate sign followed by another ('a - - b') or ending the text
        has no one reading and raises ValueError.  A term of total degree
        above the cap raises ValueError rather than being truncated away.
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
        return not self._num

    def degree(self) -> int:
        """Max total degree of a stored term; -1 for the zero jet."""
        return max((sum(e) for e in self._num), default=-1)

    def coefficient(self, exponents: Exponents) -> Fraction:
        return Fraction(self._num.get(tuple(exponents), 0), self._den)

    def terms(self) -> list[tuple[Exponents, Fraction]]:
        """Stored terms sorted in the global monomial order."""
        return [(e, Fraction(self._num[e], self._den)) for e in sorted(self._num, key=grlex_key)]

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self.nvars)

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
        den, (num, more) = shared_numerators((self, other), self._cap)
        for exponents, value in more.items():
            num[exponents] = num.get(exponents, 0) + value
        return _canonical(self._vars, self._cap, {e: v for e, v in num.items() if v}, den)

    def __sub__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TruncatedPoly":
        return _canonical(self._vars, self._cap, {e: -v for e, v in self._num.items()}, self._den)

    def __mul__(self, other: "TruncatedPoly | RationalLike") -> "TruncatedPoly":
        if isinstance(other, TruncatedPoly):
            self._check_compatible(other)
            num = truncated_product(self._num, other._num, self._cap)
            return _canonical(self._vars, self._cap, num, self._den * other._den)
        scalar = as_fraction(other)
        num = {e: v * scalar.numerator for e, v in self._num.items()} if scalar else {}
        return _canonical(self._vars, self._cap, num, self._den * scalar.denominator)

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
        num = partial_derivative(self._num, _variable_index(self._vars, name))
        return _canonical(self._vars, self._cap, num, self._den)

    def jet(self, order: int) -> "TruncatedPoly":
        """Drop all terms of total degree > order (total function: clamps)."""
        return self if order >= self._cap else self._truncated(self._cap, order)

    def with_cap(self, cap: int) -> "TruncatedPoly":
        """Reinterpret at a new cap, discarding terms above it."""
        if cap < 1:
            raise ValueError(f"degree cap must be >= 1, got {cap}")
        return self._truncated(cap, cap)

    def _truncated(self, cap: int, order: int) -> "TruncatedPoly":
        num = {e: v for e, v in self._num.items() if sum(e) <= order}
        return _canonical(self._vars, cap, num, self._den)

    def evaluate(self, values: Sequence) -> Fraction | float:
        """Evaluate at a point; exact when all inputs are Fraction/int."""
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(values)}")
        total = 0
        for exponents, value in self._num.items():
            term = Fraction(value, self._den)
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
        return self._vars == other._vars and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._vars, self._den, frozenset(self._num.items())))

    def to_text(self) -> str:
        """Canonical text form: terms in the global monomial order."""
        if not self._num:
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
    # Over the shared denominator s of the components, the pullback of a
    # monomial of degree d is s^d times the true one; top evens them out.
    scale, tables = shared_numerators(comps, cap)
    top = max(g.degree(), 0)
    memo: dict[Exponents, IntTable] = {(0,) * g.nvars: {(0,) * base.nvars: 1}}
    num: IntTable = {}
    for exponents, value in g._num.items():
        factor = value * scale ** (top - sum(exponents))
        for md, w in pullback(exponents, memo, tables, cap).items():
            num[md] = num.get(md, 0) + factor * w
    nonzero = {md: v for md, v in num.items() if v}
    return _canonical(base.variables, cap, nonzero, g._den * scale**top)


class MapGerm(tuple):
    """An ordered pair or triple of source jets vanishing at the origin.

    Models a map germ (R^2, 0) -> (R^2, 0) or (R^2, 0) -> (R^3, 0); all
    components share the same variables and cap.  It is the tuple of its
    jets, checked on construction: it equals, hashes and slices like
    that plain tuple.
    """

    __slots__ = ()

    def __new__(cls, components: Sequence[TruncatedPoly]) -> "MapGerm":
        comps = tuple(components)
        if len(comps) not in (2, 3):
            raise ValueError(f"a map germ has 2 or 3 components, got {len(comps)}")
        first = comps[0]
        for comp in comps:
            first._check_compatible(comp)
            if comp.constant_term() != 0:
                raise ValueError("map germ components must vanish at the origin")
        return super().__new__(cls, comps)

    # The germ is already the tuple of its components; all share cap and variables.
    components = property(lambda self: self)
    arity = property(len)
    cap = property(lambda self: self[0].cap)
    variables = property(lambda self: self[0].variables)

    def planar_projection(self) -> "MapGerm":
        """The first two components, i.e. the germ composed with (x, y, z) -> (x, y)."""
        if self.arity == 2:
            return self
        return MapGerm(self[:2])

    def to_texts(self) -> tuple[str, ...]:
        return tuple(c.to_text() for c in self)

    def __repr__(self) -> str:
        return f"MapGerm{self.to_texts()!r}"


def criminant(f: "MapGerm | Sequence[TruncatedPoly]") -> TruncatedPoly:
    """D = x_xi * y_t - x_t * y_xi of the first two components (x, y) of f.

    D is the Jacobian determinant of the polynomial map the two jets
    define, untruncated: for inputs at cap N the first derivatives have
    degree <= N - 1, so D is formed at cap max(1, 2N - 2), where no
    product term is dropped.
    """
    x, y = f[0], f[1]
    if x.cap != y.cap:
        raise ValueError(f"degree caps differ: {x.cap} vs {y.cap}")
    cap = max(1, 2 * x.cap - 2)
    x, y = x.with_cap(cap), y.with_cap(cap)
    return x.derive("xi") * y.derive("t") - x.derive("t") * y.derive("xi")


def deform(base: MapGerm, lam, mu1, mu2, mode: str) -> MapGerm:
    """The planar germ (f1 + mu1 f3, f2 + lam t + mu2 f3) of base = (f1, f2, f3).

    The parameters may be floats, ints or Fractions; each is taken exactly
    through Fraction(), which is exact for a float, so every coefficient
    is formed without rounding.  Mode "versal" takes all three parameters;
    "beaks" keeps the projection direction fixed and allows only lam t.
    """
    if base.arity != 3:
        raise ValueError("deformations act on 3-component germs")
    if mode not in (MODE_VERSAL, MODE_BEAKS):
        raise ValueError(f"mode must be '{MODE_VERSAL}' or '{MODE_BEAKS}', got {mode!r}")
    lam, mu1, mu2 = Fraction(lam), Fraction(mu1), Fraction(mu2)
    if mode == MODE_BEAKS and (mu1 or mu2):
        raise ValueError("mu1 and mu2 apply in versal mode only; beaks has mu1 = mu2 = 0")
    f1, f2, f3 = base
    lam_t = TruncatedPoly(base.variables, base.cap, {(0, 1): lam})
    return MapGerm((f1 + f3 * mu1, f2 + lam_t + f3 * mu2))


# -- text parsing helpers ---------------------------------------------------

def _split_terms(text: str) -> list[str]:
    # Rewrite every additive +/- into '+' followed by a signed term, then split.
    out: list[str] = []
    current: list[str] = []
    sign = None  # the separate '+'/'-' token still waiting for its term
    for token in text.replace("*", " ").split():
        if token in ("+", "-"):
            if sign is not None:
                raise ValueError(
                    f"polynomial text {text!r} has the sign {token!r} right after {sign!r}"
                )
            if current:
                out.append(" ".join(current))
            current = ["-"] if token == "-" else []
            sign = token
        else:
            # Signs glued to the front of a token ("+3/2", "-xi") start a term
            # only when a '+'/'-' separator token precedes; glued '-' inside a
            # coefficient like "-1/5" is handled by Fraction parsing below.
            current.append(token)
            sign = None
    if sign is not None:
        raise ValueError(f"polynomial text {text!r} ends in the sign {sign!r}")
    if current:
        out.append(" ".join(current))
    return out


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
        name, caret, power_text = token.partition("^")
        if name in variables:
            if caret and not power_text:
                raise ValueError(f"empty exponent in term {term!r}")
            # int() alone would also take signs, '_' separators and non-ASCII digits.
            if caret and not (power_text.isascii() and power_text.isdigit()):
                raise ValueError(
                    f"exponent {power_text!r} is not a string of digits 0-9 in term {term!r}"
                )
            exponents[variables.index(name)] += int(power_text) if caret else 1
            continue
        if seen_coeff:
            raise ValueError(f"cannot parse factor {token!r} in term {term!r}")
        _check_digits(token, f" in term {_shorten(term)!r}")
        try:
            coeff = Fraction(token)
        except ValueError as exc:
            raise ValueError(f"cannot parse factor {token!r} in term {term!r}") from exc
        seen_coeff = True
    return sign * coeff, exponents
