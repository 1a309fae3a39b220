"""Operations, workloads and the helpers their checks share."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable


@dataclass
class Op:
    """One library call or CLI invocation, as a user would make it.

    call(ctx) is the timed part; it may leave results in ctx for later
    operations of the same round.  capture(result) runs untimed right
    after and keeps what the check needs.  check(captured) returns None
    when the output is right, else the reason it is wrong.  digest, when
    given, names the canonical output kind and returns its bytes.
    known_fault, when given, is the exact reason check returns for an
    operation that fails every time because of a known fault in the
    program: that reason is counted as failed without making the run
    incorrect, and any other reason makes it incorrect.
    """

    kind: str
    call: Callable[[dict], Any]
    check: Callable[[Any], str | None]
    capture: Callable[[Any], Any] = lambda result: result
    digest: tuple[str, Callable[[Any], bytes]] | None = None
    known_fault: str | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Callable[[], None]
    inputs: dict = field(default_factory=dict)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def small_rational(rng: random.Random, top: int = 9, nonzero: bool = True) -> Fraction:
    while True:
        value = Fraction(rng.randint(-top, top), rng.randint(1, top))
        if value or not nonzero:
            return value


PRIMES = (7, 11, 13, 17, 19)


def height_rational(rng: random.Random, sign: int | None = None) -> Fraction:
    """p/q with distinct p, q from PRIMES: seeded values of one height, so
    that seeds change the inputs but hardly the cost of exact arithmetic."""
    p, q = rng.sample(PRIMES, 2)
    return Fraction(p, q) * (sign if sign is not None else rng.choice((1, -1)))


def strict_json(text: str):
    """json.loads that refuses NaN and +-Infinity, which JSON does not have."""

    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def json_bytes(value) -> bytes:
    return json.dumps(value, sort_keys=True, default=str).encode()


def monomial_text(e) -> str:
    parts = [
        name if power == 1 else f"{name}^{power}"
        for name, power in zip(("xi", "t"), e)
        if power
    ]
    return " ".join(parts) or "1"


def first(reasons) -> str | None:
    """The first failure among lazily evaluated checks."""
    for reason in reasons:
        if reason:
            return reason
    return None


def expect(condition: bool, message: str) -> str | None:
    return None if condition else message
