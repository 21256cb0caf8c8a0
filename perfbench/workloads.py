"""The op sequence of each in-process workload and the exact check of each result.

A ``Workload`` turns the plain inputs of :mod:`inputs` into library objects,
runs one op on one pool entry (``run``), and checks a result (``check``),
outside any timed region.  Expected values come from :mod:`oracle` (Runge-
Kutta tableau identities) or from exact algebraic identities such as
``log(exp(x)) == x`` and ``conv_inverse(f) * f == 1``.
"""

from __future__ import annotations

from fractions import Fraction

import oracle
from inputs import RK4, oracle_ring

#: One pass over these ops, in this order, is the workload's op sequence.
OPS = ("member", "mul", "inv", "conv_inv", "exp", "log", "evolve", "compose", "ideal", "codec")


class CheckFailed(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Workload:
    """Library objects for the pool entries of one workload run.

    Only entry 0, the one the cold pass uses, is built at first;
    ``build_pool`` builds the rest.  The ck items must carry the weights of
    :func:`inputs.add_weights`."""

    def __init__(self, hc, data: dict):
        self.hc = hc
        self.n = data["truncation"]
        self.ring = hc.resolve_ring(data["ring"])
        self.hopf = hc.resolve_hopf(data["hopf"])
        self.oring = oracle_ring(data["ring"])
        self.ck = data["hopf"] == "ck"
        self.items = data["pool"]
        self.pool = [self._build(self.items[0])]
        self.exp_out = {}  # pool index -> exp result of the current pass

    def build_pool(self) -> None:
        self.pool += [self._build(item) for item in self.items[len(self.pool):]]

    # -- inputs ----------------------------------------------------------------

    def _tree_map(self, values: dict) -> dict:
        parse = self.hc.parse_tree
        return {parse(s): v for s, v in values.items()}

    def _weights(self, tableau) -> dict:
        return oracle.elementary_weights(tableau, self.oring, self.n)

    def _build(self, item: dict) -> dict:
        hc, hopf, ring, n = self.hc, self.hopf, self.ring, self.n
        e = {"item": item}
        e["dense"] = hc.TruncatedFunctional(
            hopf, ring, n, {hopf.parse_basis(k): v for k, v in item["dense"].items()}
        )
        if self.ck:
            weights = item["weights"]
            e["A"] = self._tree_map(weights["a"])
            e["B"] = self._tree_map(weights["b"])
            e["ca"] = hc.char_from_tree_values(e["A"], n, ring)
            e["cb"] = hc.char_from_tree_values(e["B"], n, ring)
            e["x"] = hc.infinitesimal_from_tree_values(self._tree_map(item["x"]), n, ring)
            e["S"] = self._tree_map(weights["symplectic"])
            e["cs"] = hc.char_from_tree_values(e["S"], n, ring)
        else:
            e["ca"] = hc.tensor_char_from_vector(item["u"], hopf, n, ring)
            e["cb"] = hc.tensor_char_from_vector(item["v"], hopf, n, ring)
            e["x"] = hc.InfinitesimalCharacter(hc.TruncatedFunctional(
                hopf, ring, n, dict(zip(hopf.basis(1), item["x"]))
            ))
        x = e["x"].functional
        e["curve"] = hc.FunctionalCurve([x.scale(item["alpha"]), x.scale(item["beta"])])
        return e

    def _commutator_ideal(self):
        """uw - wu over unordered word pairs with |u| + |w| <= N: the tensor
        counterpart of the symplectic generators (pairs of trees)."""
        hc, n = self.hc, self.n
        words = [w for d in range(1, n) for w in self.hopf.basis(d)]
        gens = []
        for i, u in enumerate(words):
            for w in words[i + 1:]:
                if u.degree + w.degree <= n and u.letters + w.letters != w.letters + u.letters:
                    gens.append(hc.GradedVector([
                        (hc.Word(u.letters + w.letters), 1),
                        (hc.Word(w.letters + u.letters), -1),
                    ]))
        return hc.HopfIdealSpec(self.hopf, gens)

    # -- ops -------------------------------------------------------------------

    def run(self, op: str, i: int):
        hc, e, n, ring = self.hc, self.pool[i], self.n, self.ring
        if op == "member":
            return hc.Character(e["ca"].functional)
        if op == "mul":
            return hc.char_mul(e["ca"], e["cb"])
        if op == "inv":
            return hc.char_inv(e["ca"])
        if op == "conv_inv":
            return hc.conv_inverse(e["dense"])
        if op == "exp":
            out = self.exp_out[i] = hc.char_exp(e["x"])
            return out
        if op == "log":
            return hc.char_log(self.exp_out[i])
        if op == "evolve":
            return hc.evolve(e["curve"], e["item"]["t"])
        if op == "compose":
            if self.ck:
                return hc.butcher_compose(e["A"], e["B"], n, ring)
            u = hc.tensor_char_group_iso(e["ca"])
            v = hc.tensor_char_group_iso(e["cb"])
            return hc.tensor_char_from_vector(
                [ring.add(p, q) for p, q in zip(u, v)], self.hopf, n, ring
            )
        if op == "ideal":
            if self.ck:
                gens = hc.symplectic_generators(n)
                return hc.is_symplectic(e["S"], n, ring), hc.annihilates(e["cs"], gens)
            return hc.annihilates(e["ca"], self._commutator_ideal())
        if op == "codec":
            return hc.TruncatedFunctional.from_json(e["ca"].functional.to_json())
        raise ValueError(f"unknown op {op!r}")

    # -- checks ----------------------------------------------------------------

    def _serial_values(self, tree_values: dict) -> dict:
        return {t.serial: v for t, v in tree_values.items()}

    def _nonzero(self, values: dict) -> dict:
        zero = self.oring.zero
        return {k: v for k, v in values.items() if v != zero}

    def _vector_char(self, vector):
        return self.hc.tensor_char_from_vector(vector, self.hopf, self.n, self.ring).functional

    def _scaled(self, item, key, factor):
        return [self.oring.mul(self.oring.lift(factor), c) for c in item[key]]

    def check(self, op: str, i: int, result) -> None:
        """Raise ``CheckFailed`` unless ``result`` is the exact answer."""
        hc, e, oring = self.hc, self.pool[i], self.oring
        item = e["item"]
        if op == "member":
            _require(result.functional is e["ca"].functional, "member wrapped another functional")
        elif op in ("mul", "compose"):
            if self.ck:
                got = result if op == "compose" else hc.tree_values(result)
                want = self._weights(oracle.concatenate(item["a"], item["b"], oring))
                _require(self._nonzero(self._serial_values(got)) == self._nonzero(want),
                         f"{op} != weights of the concatenated tableau")
            else:
                want = self._vector_char([oring.add(p, q) for p, q in zip(item["u"], item["v"])])
                _require(result.functional == want, f"{op} != character of u + v")
        elif op == "inv":
            if self.ck:
                want = self._weights(oracle.inverse_tableau(item["a"], oring))
                _require(self._serial_values(hc.tree_values(result)) == self._nonzero(want),
                         "inv != weights of (A - 1 b^T, -b)")
            else:
                _require(result.functional == self._vector_char([oring.neg(c) for c in item["u"]]),
                         "inv != character of -u")
        elif op == "conv_inv":
            unit = hc.conv_unit(self.hopf, self.ring, self.n)
            _require(hc.convolve(result, e["dense"]) == unit, "conv_inverse(f) * f != 1")
        elif op == "exp":
            if not self.ck:
                _require(result.functional == self._vector_char(item["x"]),
                         "exp != character of the vector")
        elif op == "log":
            _require(result.functional == e["x"].functional, "log(exp(x)) != x")
        elif op == "evolve":
            t = Fraction(item["t"])
            g = item["alpha"] * t + item["beta"] * t * t / 2
            if self.ck:
                x = e["x"].functional.scale(g)
                want = hc.char_exp(hc.InfinitesimalCharacter(x)).functional
            else:
                want = self._vector_char(self._scaled(item, "x", g))
            _require(result == want, "evolve of (alpha + beta t) x != exp(g(t) x)")
        elif op == "ideal":
            _require(result == ((True, True) if self.ck else True),
                     "ideal test rejected a member")
        elif op == "codec":
            _require(result == e["ca"].functional, "from_json(to_json(f)) != f")

    def check_once(self) -> None:
        """Identities that need no pool entry: exp(delta_leaf) = 1/t!, RK4 is
        not symplectic, and membership rejects a dense non-character."""
        hc, n, ring, oring = self.hc, self.n, self.ring, self.oring
        if self.ck:
            leaf = hc.delta(self.hopf, ring, n, hc.Forest([hc.LEAF]))
            flow = self._serial_values(hc.tree_values(hc.char_exp(hc.InfinitesimalCharacter(leaf))))
            want = {t: oring.lift(Fraction(1, oracle.tree_factorial(t))) for t in oracle.tree_serials(n)}
            _require(flow == want, "exp(delta_leaf)(t) != 1/t!")
            rk4 = ([[oring.lift(c) for c in row] for row in RK4[0]], [oring.lift(c) for c in RK4[1]])
            weights = self._weights(rk4)
            values = self._tree_map(weights)
            _require(not oracle.is_symplectic_map(weights, oring, n), "oracle calls RK4 symplectic")
            _require(not hc.is_symplectic(values, n, ring), "is_symplectic(RK4) is true")
            gens = hc.symplectic_generators(n)
            _require(not hc.annihilates(hc.char_from_tree_values(values, n, ring), gens),
                     "annihilates(RK4) is true")
            _require(oracle.is_symplectic_map(self.items[0]["weights"]["symplectic"], oring, n),
                     "oracle calls the symplectic tableau non-symplectic")
        try:
            hc.Character(self.pool[0]["dense"])
        except hc.MembershipError:
            pass
        else:
            raise CheckFailed("Character accepted a dense non-character")
