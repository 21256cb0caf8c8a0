"""Seeded workload inputs, made without hopfchar.

Everything is drawn from one ``random.Random(seed)`` so the same seed gives
the same inputs, and nothing depends on ``hopfchar.sampling``.  Values are
small rationals with denominators up to 6, so the exact arithmetic cost of
one input is close to that of another.  Basis elements are named by their
canonical serializations (see :mod:`oracle`), so the inputs do not depend on
the order in which the library lists its basis.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import oracle

#: How many distinct inputs each op cycles through.
POOL = 6

#: Workload name -> (hopf id, ring id, truncation N, RK stages).
SPECS = {
    "butcher-n7": ("ck", "rational", 7, 3),
    "tensor-d2n7": ("tensor(2)", "rational", 7, 0),
    "series-ck5": ("ck", "series:4", 5, 3),
    "cli-n6": ("ck", "rational", 6, 3),
}

HALF = Fraction(1, 2)

RK4 = (
    [[0, 0, 0, 0], [HALF, 0, 0, 0], [0, HALF, 0, 0], [0, 0, 1, 0]],
    [Fraction(1, 6), Fraction(1, 3), Fraction(1, 3), Fraction(1, 6)],
)


def oracle_ring(ring_id: str):
    if ring_id == "rational":
        return oracle.Rationals()
    return oracle.Series(int(ring_id.split(":", 1)[1]))


class Draw:
    """Random exact ring elements."""

    def __init__(self, rng: random.Random, ring_id: str):
        self.rng = rng
        self.ring = oracle_ring(ring_id)
        self.series = ring_id != "rational"

    def rational(self, ks=(1, 5, 7, 11)) -> Fraction:
        """+-k/6 with k prime to 6: every value has the same denominator,
        so the cost of exact arithmetic varies little from one seed to the
        next."""
        rng = self.rng
        return Fraction(rng.choice((1, -1)) * rng.choice(ks), 6)

    def element(self):
        """A ring element with nonzero constant term.  A series has exactly
        one zero coefficient, at a random place, so that its cost does not
        depend on how many zeros the seed drew."""
        if not self.series:
            return self.rational()
        m = self.ring.m
        zero = self.rng.randrange(m)
        return (self.rational(),) + tuple(
            Fraction(0) if k == zero else self.rational() for k in range(m)
        )

    def tableau(self, stages: int):
        """A full (implicit) tableau with random entries."""
        a = [[self.element() for _ in range(stages)] for _ in range(stages)]
        return a, [self.element() for _ in range(stages)]

    def symplectic_tableau(self, stages: int):
        """a_ij = b_j (1/2 + w_ij) with antisymmetric w, so that
        b_i a_ij + b_j a_ji = b_i b_j (Sanz-Serna's condition)."""
        ring = self.ring
        b = [self.element() for _ in range(stages)]
        w = [[ring.zero] * stages for _ in range(stages)]
        for i in range(stages):
            for j in range(i + 1, stages):
                w[i][j] = self.element()
                w[j][i] = ring.neg(w[i][j])
        a = [
            [ring.mul(b[j], ring.add(ring.lift(HALF), w[i][j])) for j in range(stages)]
            for i in range(stages)
        ]
        return a, b


def generate(workload: str, seed: int) -> dict:
    """All inputs of one workload run, as plain data."""
    hopf_id, ring_id, n, stages = SPECS[workload]
    # cli-n6 draws the inputs a butcher workload of its order would draw
    draw = Draw(random.Random(f"{workload.replace('cli-', 'butcher-')}:{seed}"), ring_id)
    data = {"hopf": hopf_id, "ring": ring_id, "truncation": n, "pool": []}
    if hopf_id == "ck":
        trees = oracle.tree_serials(n)
        basis = oracle.forest_serials(n)
    else:
        d = int(hopf_id[len("tensor("):-1])
        basis = oracle.word_serials(d, n)
    for _ in range(POOL):
        item = {
            # dense invertible non-character, unit on the empty forest/word
            "dense": {key: draw.ring.one if key == "1" else draw.element() for key in basis},
            "alpha": draw.rational(),
            "beta": draw.rational(),
            "t": draw.rational(),
        }
        if hopf_id == "ck":
            item["a"] = draw.tableau(stages)
            item["b"] = draw.tableau(stages)
            item["symplectic"] = draw.symplectic_tableau(stages)
            item["x"] = {tree: draw.element() for tree in trees}
        else:
            # u and v share signs so that u + v has no zero coordinate.
            item["u"] = [draw.rational(ks=(5, 7)) for _ in range(d)]
            item["v"] = [abs(draw.rational(ks=(5, 7))) * (1 if u > 0 else -1) for u in item["u"]]
            item["x"] = [draw.rational(ks=(5, 7)) for _ in range(d)]
        data["pool"].append(item)
    return data


def add_weights(data: dict) -> None:
    """Give each ck pool item the elementary weights of its tableaux, as
    ``item["weights"][key]`` (tree serial -> value), so that the workload
    only converts plain data inside its timed region."""
    if data["hopf"] != "ck":
        return
    ring, n = oracle_ring(data["ring"]), data["truncation"]
    for item in data["pool"]:
        item["weights"] = {
            key: oracle.elementary_weights(item[key], ring, n) for key in ("a", "b", "symplectic")
        }


def digest(data: dict) -> str:
    """sha256 of a canonical rendering of the inputs (first 16 hex digits)."""
    return hashlib.sha256(_render(data).encode()).hexdigest()[:16]


def _render(obj) -> str:
    if isinstance(obj, dict):
        return "{" + ",".join(f"{k}:{_render(obj[k])}" for k in sorted(obj)) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render(x) for x in obj) + "]"
    return str(obj)
