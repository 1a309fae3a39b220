"""Recompute bench/reference.json from the oracle (never from tanfam).

    python3 bench/rebuild_reference.py

The stored values are the branch-probe answers the classify checks need:
for the H family (k1, alpha) = (3, 2) and the A family (3, 1), at each
cap the workloads classify at, the highest jet degree up to the working
order (cap - 1) whose monomials in the branch slot (slot 3 for H, slot 2
for A) do not all lie in the unrestricted extended tangent space of the
lifted germ, or null when every degree is absorbed.  A target change
diag(1, s, s) maps that tangent space onto the one of the germ with u
scaled by s and fixes the slot monomials up to the factor s, so the
answers hold for every nonzero scale; the workloads use seeded scales.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import oracle as O

CAPS = (10, 11, 12)
FAMILIES = {"H": ((3, 2), 2), "A": ((3, 1), 1)}  # (k1, alpha), slot index


def top_unabsorbed(k1: int, alpha: int, slot: int, cap: int) -> int | None:
    u = O.poly([((1, 2), k1), ((0, 3), alpha)])
    order = cap - 1
    space = O.space_of(O.generators(O.legendrian(u, cap), order, "A"))
    monos = O.monomials(2, 0, order)
    width = 3 * len(monos)
    for degree in range(order, 0, -1):
        for i, e in enumerate(monos):
            if sum(e) == degree and not space.contains(O.unit(width, slot * len(monos) + i)):
                return degree
    return None


def main() -> int:
    reference = {}
    for family, ((k1, alpha), slot) in FAMILIES.items():
        reference[family] = {}
        for cap in CAPS:
            reference[family][str(cap)] = top_unabsorbed(k1, alpha, slot, cap)
            print(f"{family} cap {cap}: top unabsorbed degree {reference[family][str(cap)]}",
                  file=sys.stderr)
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
