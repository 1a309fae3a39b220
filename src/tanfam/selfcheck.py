"""Seeded property suites for the jet algebra and the tangent-space builder.

Two kinds of checks live here.  The algebra suites throw randomized
sparse jets at the ring and calculus laws (commutativity, associativity,
distributivity, Leibniz, chain rule, functoriality of truncation under
composition); any violation would mean the truncation bookkeeping is
wrong somewhere.  The rank oracle rebuilds tangent spaces from scratch
with deliberately naive machinery (plain dict polynomials, textbook
Gaussian elimination over Fraction) and compares ranks against the
production builder, so the pullback/power caching and the fraction-free
elimination are cross-checked by an implementation sharing no code with
them.

Everything is driven by an explicit seed, so failures reproduce exactly.
Derivatives of cap-degree terms are not trustworthy, which is why the
calculus identities are compared at one degree below the cap.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import NamedTuple, Sequence

from tanfam.jets import (
    DEFAULT_CAP,
    DEFAULT_ORACLE_SAMPLES,
    DEFAULT_ROUNDS,
    SOURCE_VARS,
    TARGET_VARS,
    Exponents,
    MapGerm,
    TruncatedPoly,
    compose,
    monomial_basis,
)
from tanfam.tangent import (
    KIND_FIBERED,
    KIND_FULL,
    build_extended_tangent_space,
)

DEFAULT_ORACLE_ORDER = 3
_MAX_RECORDED_FAILURES = 5


class SuiteResult(NamedTuple):
    """Outcome of one property suite: rounds run, failures recorded."""

    name: str
    rounds: int
    seed: int
    failures: tuple[str, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "rounds": self.rounds,
            "seed": self.seed,
            "ok": self.ok,
            "failures": list(self.failures),
            "elapsed": round(self.elapsed, 3),
        }


def _random_exponents(rng: random.Random, nvars: int, degree: int) -> Exponents:
    remaining = degree
    exponents = []
    for _ in range(nvars - 1):
        e = rng.randint(0, remaining)
        exponents.append(e)
        remaining -= e
    exponents.append(remaining)
    return tuple(exponents)


def random_jet(
    rng: random.Random,
    variables: Sequence[str] = SOURCE_VARS,
    cap: int = DEFAULT_CAP,
    terms: int = 2,
    vanishing: bool = False,
) -> TruncatedPoly:
    """Sparse random jet with small rational coefficients.

    Sparsity is deliberate: two-term inputs keep products small enough
    that a thousand rounds of triple products stay well under a second,
    while still exercising every code path of the arithmetic.
    """
    low = 1 if vanishing else 0
    table: dict[Exponents, Fraction] = {}
    for _ in range(terms):
        degree = rng.randint(low, cap)
        exponents = _random_exponents(rng, len(variables), degree)
        coeff = Fraction(rng.randint(1, 4), rng.randint(1, 4)) * rng.choice((1, -1))
        table[exponents] = table.get(exponents, Fraction(0)) + coeff
    return TruncatedPoly(tuple(variables), cap, table)


def _run_suite(name, seed, rounds, body) -> SuiteResult:
    rng = random.Random(seed)
    failures: list[str] = []
    start = time.perf_counter()
    for index in range(rounds):
        message = body(rng)
        if message is not None and len(failures) < _MAX_RECORDED_FAILURES:
            failures.append(f"round {index}: {message}")
    return SuiteResult(
        name=name,
        rounds=rounds,
        seed=seed,
        failures=tuple(failures),
        elapsed=time.perf_counter() - start,
    )


def check_ring_laws(
    seed: int = 0, rounds: int = DEFAULT_ROUNDS, cap: int = DEFAULT_CAP
) -> SuiteResult:
    """Commutativity, associativity and distributivity on random jets."""

    def body(rng: random.Random):
        variables = rng.choice((SOURCE_VARS, TARGET_VARS))
        f, g, h = (
            random_jet(rng, variables, cap, terms=rng.choice((1, 2, 2))) for _ in range(3)
        )
        if (f + g) != (g + f):
            return f"addition not commutative for {f!r}, {g!r}"
        if (f * g) != (g * f):
            return f"multiplication not commutative for {f!r}, {g!r}"
        if ((f + g) + h) != (f + (g + h)):
            return f"addition not associative for {f!r}, {g!r}, {h!r}"
        if ((f * g) * h) != (f * (g * h)):
            return f"multiplication not associative for {f!r}, {g!r}, {h!r}"
        if (f * (g + h)) != (f * g + f * h):
            return f"distributivity fails for {f!r}, {g!r}, {h!r}"
        return None

    return _run_suite("ring-laws", seed, rounds, body)


def check_leibniz(
    seed: int = 0, rounds: int = DEFAULT_ROUNDS, cap: int = DEFAULT_CAP
) -> SuiteResult:
    """(fg)' = f'g + fg', compared at one degree below the cap."""
    trusted = cap - 1

    def body(rng: random.Random):
        f = random_jet(rng, SOURCE_VARS, cap)
        g = random_jet(rng, SOURCE_VARS, cap)
        name = rng.choice(SOURCE_VARS)
        lhs = (f * g).derive(name).jet(trusted)
        rhs = (f.derive(name) * g + f * g.derive(name)).jet(trusted)
        if lhs != rhs:
            return f"Leibniz fails in d/d{name} for {f!r}, {g!r}"
        return None

    return _run_suite("leibniz", seed, rounds, body)


def check_chain_rule(
    seed: int = 0, rounds: int = DEFAULT_ROUNDS, cap: int = DEFAULT_CAP
) -> SuiteResult:
    """d(g o F) = sum_i (d_i g o F) dF_i, compared below the cap."""
    trusted = cap - 1

    def body(rng: random.Random):
        components = [
            random_jet(rng, SOURCE_VARS, cap, vanishing=True) for _ in TARGET_VARS
        ]
        g = random_jet(rng, TARGET_VARS, cap)
        name = rng.choice(SOURCE_VARS)
        lhs = compose(g, components).derive(name).jet(trusted)
        rhs = TruncatedPoly.zero(SOURCE_VARS, cap)
        for target_name, component in zip(TARGET_VARS, components):
            rhs = rhs + compose(g.derive(target_name), components) * component.derive(name)
        if lhs != rhs.jet(trusted):
            return f"chain rule fails in d/d{name} for g={g!r}"
        return None

    return _run_suite("chain-rule", seed, rounds, body)


def check_composition(
    seed: int = 0, rounds: int = DEFAULT_ROUNDS, cap: int = DEFAULT_CAP
) -> SuiteResult:
    """Truncation commutes with composition: jets only see jets.

    j^k(g o F) must equal j^k(j^k g o j^k F) for every k: the order-k
    part of a composition cannot depend on discarded higher terms when
    the substituted components vanish at the origin.
    """

    def body(rng: random.Random):
        components = [
            random_jet(rng, SOURCE_VARS, cap, vanishing=True) for _ in TARGET_VARS
        ]
        g = random_jet(rng, TARGET_VARS, cap)
        k = rng.randint(1, cap)
        lhs = compose(g, components).jet(k)
        rhs = compose(g.jet(k), [c.jet(k) for c in components]).jet(k)
        if lhs != rhs:
            return f"truncation at {k} not functorial for g={g!r}"
        return None

    return _run_suite("composition", seed, rounds, body)


# ----------------------------------------------------------------------
# Naive tangent-space rank oracle
# ----------------------------------------------------------------------


def _dict_mul(a: dict, b: dict, order: int) -> dict:
    out: dict[Exponents, Fraction] = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= order:
                out[e] = out.get(e, Fraction(0)) + va * vb
    return {e: v for e, v in out.items() if v}


def _dict_derive(a: dict, index: int) -> dict:
    out: dict[Exponents, Fraction] = {}
    for e, v in a.items():
        if e[index] == 0:
            continue
        lowered = e[:index] + (e[index] - 1,) + e[index + 1 :]
        out[lowered] = out.get(lowered, Fraction(0)) + v * e[index]
    return out


def _dict_truncate(a: dict, order: int) -> dict:
    return {e: v for e, v in a.items() if sum(e) <= order and v}


def _plain_gauss_rank(rows: list[list[Fraction]]) -> int:
    rows = [row[:] for row in rows if any(row)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / lead
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def naive_tangent_rank(germ: MapGerm, order: int, kind: str = KIND_FIBERED) -> int:
    """Extended tangent-space rank by brute-force generator enumeration.

    Rebuilds every generator with plain dict arithmetic truncated at the
    working order and ranks the flattened matrix with dense Gaussian
    elimination over Fraction.  Shares no code with the tangent module.
    A germ with n = germ.arity components (2 or 3) has n slots; under the
    fibered kind slots 1 to n - 1 take functions of the first n - 1
    target variables, so slot 1 of a planar germ takes functions of x.
    """
    full = [dict(c.terms()) for c in germ.components]
    comps = [_dict_truncate(d, order) for d in full]
    arity = germ.arity
    mono_list = monomial_basis(2, 0, order)
    rows: list[list[Fraction]] = []

    def flat(slots: Sequence[dict]) -> list[Fraction]:
        return [
            slots[slot].get(md, Fraction(0)) for slot in range(arity) for md in mono_list
        ]

    for var_index in range(2):
        partials = [_dict_truncate(_dict_derive(d, var_index), order) for d in full]
        for md in mono_list:
            mono = {md: Fraction(1)}
            rows.append(flat([_dict_mul(mono, p, order) for p in partials]))
    target = monomial_basis(arity, 0, order)
    fibered = target if kind == KIND_FULL else monomial_basis(arity - 1, 0, order)
    slot_monomials = [fibered] * (arity - 1) + [target]
    for slot, monomials in enumerate(slot_monomials):
        for md in monomials:
            pulled = {(0, 0): Fraction(1)}
            for i, e in enumerate(md):
                for _ in range(e):
                    pulled = _dict_mul(pulled, comps[i], order)
            placed: list[dict] = [{} for _ in range(arity)]
            placed[slot] = pulled
            rows.append(flat(placed))
    return _plain_gauss_rank(rows)


def random_sparse_germ(
    rng: random.Random, cap: int, max_degree: int = 3
) -> MapGerm:
    """Three-component germ built from 2 or 3 scattered monomial terms."""
    term_count = rng.choice((2, 3))
    tables: list[dict[Exponents, Fraction]] = [{}, {}, {}]
    used: set[tuple[int, Exponents]] = set()
    while len(used) < term_count:
        slot = rng.randrange(3)
        degree = rng.randint(1, max_degree)
        exponents = _random_exponents(rng, 2, degree)
        if (slot, exponents) in used:
            continue
        used.add((slot, exponents))
        tables[slot][exponents] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    return MapGerm(tuple(TruncatedPoly(SOURCE_VARS, cap, t) for t in tables))


def check_rank_oracle(
    seed: int = 0,
    samples: int = DEFAULT_ORACLE_SAMPLES,
    order: int = DEFAULT_ORACLE_ORDER,
) -> SuiteResult:
    """Production tangent-space ranks vs the naive oracle, both kinds, on
    germs in the plane and in 3-space."""
    cap = order + 1

    def body(rng: random.Random):
        f1, f2, f3 = random_sparse_germ(rng, cap, max_degree=order)
        # about half the germs are planar: f3's terms move into f2
        germ = MapGerm((f1, f2, f3) if rng.random() < 0.5 else (f1, f2 + f3))
        for kind in (KIND_FIBERED, KIND_FULL):
            expected = naive_tangent_rank(germ, order, kind)
            actual = build_extended_tangent_space(germ, order, kind=kind).rank
            if actual != expected:
                return (
                    f"rank mismatch for {germ!r} kind={kind}: "
                    f"builder {actual}, oracle {expected}"
                )
        return None

    return _run_suite("rank-oracle", seed, samples, body)


def run_all(
    seed: int = 0,
    rounds: int = DEFAULT_ROUNDS,
    samples: int = DEFAULT_ORACLE_SAMPLES,
    cap: int = DEFAULT_CAP,
) -> list[SuiteResult]:
    return [
        check_ring_laws(seed, rounds, cap),
        check_leibniz(seed, rounds, cap),
        check_chain_rule(seed, rounds, cap),
        check_composition(seed, rounds, cap),
        check_rank_oracle(seed, samples),
    ]
