"""The exact-core workload, exact-deep, and the exact checks it shares with cli-mix.

Every rank, canonical matrix and membership answer is compared with
the oracle in oracle.py, which rebuilds each generator matrix from the
definitions and reduces it with its own exact elimination.  Branch-probe
answers for the deep classify calls come from reference.json, which
rebuild_reference.py recomputes from the same oracle.  Variants and the
modulus a come from the closed forms of the classification.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import tanfam as tf

import oracle as O
from common import (
    Op,
    Workload,
    expect,
    first,
    height_rational,
    json_bytes,
    monomial_text,
    rng_for,
)

REFERENCE = Path(__file__).with_name("reference.json")
BRANCH_BASE = {"H": (3, 2), "A": (3, 1)}  # (k1, alpha) the references are computed at
BLOCK = (3, 5, 4)
FOLD_BLOCK = (2, 3, 2)
DEEP_CAP = 10


class Facts:
    """Oracle answers about one tangent space, computed once."""

    def __init__(self, comps, order: int, kind: str):
        self.order = order
        self.monos = O.monomials(2, 0, order)
        self.n = len(self.monos)
        self.space = O.space_of(O.generators(comps, order, kind))
        self._rref = None

    @property
    def rank(self) -> int:
        return self.space.rank

    @property
    def dimension(self) -> int:
        return 3 * self.n

    def rref(self) -> list[list[int]]:
        if self._rref is None:
            self._rref = O.reduced_echelon(self.space, self.dimension)
        return self._rref

    def block(self, thresholds) -> tuple[bool, dict | None]:
        members = O.rref_unit_members(self.rref())
        for slot, threshold in enumerate(thresholds):
            for i, e in enumerate(self.monos):
                if sum(e) >= threshold and slot * self.n + i not in members:
                    return False, {"slot": slot + 1, "monomial": monomial_text(e)}
        return True, None

    def label(self, column: int) -> dict:
        return {
            "slot": column // self.n + 1,
            "monomial": monomial_text(self.monos[column % self.n]),
        }


class Oracle:
    """Memoized oracle answers, keyed by a description of the input."""

    def __init__(self):
        self._facts: dict = {}
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))

    def facts(self, key, comps, order: int, kind: str) -> Facts:
        full = (key, order, kind)
        if full not in self._facts:
            self._facts[full] = Facts(comps, order, kind)
        return self._facts[full]


# -- closed forms -----------------------------------------------------------------


def closed_form_variant(k0, k1, alpha) -> tuple[str, Fraction | None]:
    if k0 != 0:
        return "TypeI", None
    if k1 == 0 or k1 == alpha:
        return "IndeterminateAtOrder", None
    a = (alpha - k1) * (k1 - 3 * alpha) / (k1 * k1)
    if 2 * k1 == 3 * alpha:
        return "HBranch", a
    if k1 == 3 * alpha:
        return "ABranch", a
    return ("A1Plus" if a > 0 else "A1Minus"), a


def expected_branch(family: str, order: int, top: int | None) -> dict:
    """The documented reading of the top unabsorbed degree as an index."""
    out = {"family": family, "order": order, "resolved": False, "n": None,
           "lower_bound": 2, "essential_degree": top}
    if top is None:
        return out
    if family == "H":
        n, remainder = divmod(top + 1, 3)
        n += 1
        if remainder:
            return out
        if 3 * n - 1 > order:
            return {**out, "lower_bound": n}
    else:
        n = top
        if n == order:
            return {**out, "lower_bound": n}
        if n < 2:
            return out
    return {**out, "resolved": True, "n": n, "lower_bound": None}


def check_label(payload: dict, k0, k1, alpha, u: dict, cap: int, reference) -> str | None:
    """A classify verdict against the closed forms, the oracle's lifted
    germ and, for branch germs, the stored probe reference."""
    variant, a = closed_form_variant(k0, k1, alpha)
    typed = variant not in ("TypeI", "IndeterminateAtOrder")
    if payload.get("variant") != variant:
        return f"variant {payload.get('variant')} != closed form {variant}"
    got_a = payload.get("a")
    if (Fraction(got_a) if got_a is not None else None) != a:
        return f"a = {got_a} != closed form {a}"
    flag = (a not in (-1, 0) and a < Fraction(1, 3)) if typed else None
    if payload.get("projection_form_applicable") != flag:
        return "projection-form flag contradicts a"
    if payload.get("order") != (None if variant == "TypeI" else cap - 1):
        return f"order {payload.get('order')} != {cap - 1}"
    lifted = [O.parse_text(text) for text in payload.get("parameterization") or []]
    if lifted != list(O.legendrian(u, cap)):
        return "lifted parameterization differs from the oracle's"
    if variant in ("HBranch", "ABranch"):
        family = variant[0]
        top = reference[family][str(cap)]
        want = expected_branch(family, cap - 1, top)
        if payload.get("branch") != want:
            return f"branch {payload.get('branch')} != oracle {want}"
    elif payload.get("branch") is not None:
        return "branch reported for a non-branch germ"
    return None


def branch_u(family: str, scale: Fraction) -> dict:
    k1, alpha = BRANCH_BASE[family]
    return O.poly([((1, 2), scale * k1), ((0, 3), scale * alpha)])


# -- shared op builders -----------------------------------------------------------


def build_ops(oracle, key, germ, comps, order, kind, thresholds, generic, reduced=False):
    """Build, canonical matrix and block check for one space, as three ops."""
    slot = ("basis", key, order, kind)
    okind = "reduced" if reduced else kind

    def facts():
        return oracle.facts(key, comps, order, okind)

    def build(ctx):
        if reduced:
            basis = tf.build_reduced_tangent_space(germ, order)
        else:
            basis = tf.build_extended_tangent_space(germ, order, kind)
        ctx[slot] = basis
        return basis

    def check_build(got):
        f = facts()
        rank, codim, dim = got
        return first((
            expect(dim == f.dimension, f"dimension {dim} != {f.dimension}"),
            expect(rank == f.rank, f"rank {rank} != oracle {f.rank}"),
            expect(codim == f.dimension - f.rank, f"codimension {codim} != oracle"),
            expect(not generic or codim == 3, f"codimension {codim} != 3 at generic (a, b)"),
        ))

    def check_canonical(got):
        return expect(got == facts().rref(), "canonical matrix differs from the oracle's RREF")

    def check_block(got):
        holds, witness = facts().block(thresholds)
        return first((
            expect(got["holds"] == holds, f"block holds={got['holds']}, oracle {holds}"),
            expect(got["witness"] == witness, f"witness {got['witness']} != oracle {witness}"),
            expect(got["order"] == order and got["modulo_degree"] == order + 1,
                   "block order bookkeeping"),
        ))

    return [
        Op("build", build, check_build,
           capture=lambda b: (b.rank, b.codimension, b.dimension)),
        Op("canonical", lambda ctx: ctx[slot].canonical_matrix(), check_canonical,
           digest=("canonical-matrix", json_bytes)),
        Op("block", lambda ctx: tf.contains_ideal_block(ctx[slot], *thresholds), check_block,
           capture=lambda c: c.to_json(), digest=("verdict-json", json_bytes)),
    ]


def complement_polys():
    t3 = {(0, 2): Fraction(1), (0, 3): Fraction(1)}
    return [({}, {(0, 1): Fraction(1)}, {}), (t3, {}, {}), ({}, t3, {})]


def expected_miniversal(f: Facts, order: int) -> dict:
    """The oracle's miniversality verdict for the documented complement."""
    space = O.Echelon()
    space.rows = dict(f.space.rows)
    inside = []
    added = 0
    for triple in complement_polys():
        if space.add(O.flat_triple(triple, order)):
            added += 1
        else:
            inside.append(triple)
    pivots = set(space.pivots())
    holds, witness = f.block(BLOCK)
    return {
        "codimension": f.dimension - f.rank,
        "complement_added": added,
        "direct_sum": added == 3,
        "dependent_complement_vectors": inside,
        "spans": added == 3 and space.rank == f.dimension,
        "defect": [f.label(j) for j in range(f.dimension) if j not in pivots],
        "block_holds": holds,
        "block_witness": witness,
    }


def miniversal_op(oracle, key, germ, comps, order, complement):
    def check(verdict):
        want = expected_miniversal(oracle.facts(key, comps, order, tf.KIND_FIBERED), order)
        got = dict(verdict)
        got["dependent_complement_vectors"] = [
            tuple(O.parse_text(t) for t in vec) for vec in verdict["dependent_complement_vectors"]
        ]
        for name, value in want.items():
            if got.get(name) != value:
                return f"{name} {got.get(name)} != oracle {value}"
        return None

    return Op("miniversal", lambda ctx: tf.miniversality_check(germ, complement, order), check,
              digest=("verdict-json", json_bytes))


def classify_op(family_germ, k0, k1, alpha, u, cap, reference):
    return Op(
        "classify",
        lambda ctx: tf.classify(family_germ),
        lambda payload: check_label(payload, k0, k1, alpha, u, cap, reference),
        capture=lambda label: label.to_json(),
        digest=("verdict-json", json_bytes),
    )


def tf_complement(cap: int):
    t = tf.TruncatedPoly.variable(tf.SOURCE_VARS, "t", cap)
    zero = tf.TruncatedPoly.zero(tf.SOURCE_VARS, cap)
    bump = t * t + t**3
    return [(zero, t, zero), (bump, zero, zero), (zero, bump, zero)]


# -- exact-deep --------------------------------------------------------------------


def exact_deep(seed: int) -> Workload:
    """Double umbrellas at working orders 7-9, the reduced fold space at
    5-7 and H/A branch classification at caps 10-12."""
    rng = rng_for("exact-deep", seed)
    oracle = Oracle()
    moduli = [(Fraction(-37, 11), Fraction(13, 7), True)]
    for a in (Fraction(-1), Fraction(0), Fraction(1, 3)):
        moduli.append((a, height_rational(rng), False))
    moduli.append((height_rational(rng, sign=-1), height_rational(rng), True))

    complement = tf_complement(DEEP_CAP)
    ops: list[Op] = []
    for a, b, generic in moduli:
        germ = tf.double_umbrella_form(a, b, DEEP_CAP, validate=False)
        comps = O.double_umbrella(a, b)
        key = ("du", a, b)
        for order in (7, 8, 9):
            ops += build_ops(oracle, key, germ, comps, order, tf.KIND_FIBERED, BLOCK, generic)
        ops.append(miniversal_op(oracle, key, germ, comps, 8, complement))

    # The fold space gets build and block only: without its canonical
    # matrices the round's median latency falls inside the group of
    # order-9 canonical matrices and blocks, not at its edge.
    fold = tf.fold_form(8)
    for order in (5, 6, 7):
        ops += [op for op in build_ops(oracle, ("fold",), fold, O.fold(), order,
                                       tf.KIND_FIBERED, FOLD_BLOCK, False, reduced=True)
                if op.kind != "canonical"]

    branch_scales = {}
    for family in ("H", "A"):
        scale = height_rational(rng)
        branch_scales[family] = str(scale)
        k1, alpha = (scale * v for v in BRANCH_BASE[family])
        for cap in (10, 11, 12):
            g = tf.family_from_invariants(0, k1, alpha, cap=cap)
            ops.append(classify_op(g, Fraction(0), k1, alpha, branch_u(family, scale), cap,
                                   oracle.reference))

    warm = tf.double_umbrella_form(Fraction(1, 5), 1, 6)
    return Workload(
        "exact-deep", ops,
        warmup=lambda: tf.build_extended_tangent_space(warm, 4).canonical_matrix(),
        inputs={"moduli": [[str(a), str(b)] for a, b, _ in moduli],
                "branch_scales": branch_scales},
    )
