"""Fuzzed JSON payloads for ``hopfchar char inv/log/evolve/symplectic``: valid
inputs with fields missing, mistyped or nested wrong.  Every run either
succeeds or exits 1 or 2 with exactly one ``error:`` line on stderr, never a
traceback.

Valid payloads are ck at truncation 6 over the rationals and 4 over
``series:2``, tensor(2) at 5, tensor(3) at 3 and ck at 0, all within
``SIZE_BUDGET``.  The junk ids ``tensor(1000)`` and ``series:2000000`` ask for
more than ``SIZE_BUDGET`` allows, so they must end in ``ResourceLimitError``
(exit 2) before anything that size is allocated.  The junk value
``1e999999999`` must be a parse error (exit 1) before 10**999999999 is
computed."""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfchar import cli
from hopfchar.characters import tree_values_to_json_dict
from hopfchar.hopf import ck_hopf, tensor_hopf
from hopfchar.rings import RATIONAL, TruncatedSeriesRing
from hopfchar.sampling import random_character, random_infinitesimal, random_tree_values

FUZZ = settings(derandomize=True, max_examples=200, deadline=None, database=None)

SPACES = [(ck_hopf(), RATIONAL, 6), (tensor_hopf(2), RATIONAL, 5), (tensor_hopf(3), RATIONAL, 3),
          (ck_hopf(), TruncatedSeriesRing(2), 4), (ck_hopf(), RATIONAL, 0)]
_rng = random.Random(77)
CHARACTERS = [random_character(*space, _rng).functional.to_json_dict() for space in SPACES]
INFINITESIMALS = [random_infinitesimal(*space, _rng).functional.to_json_dict()
                  for space in SPACES]
TREE_MAPS = [tree_values_to_json_dict(random_tree_values(n, _rng, ring), n, ring)
             for ring, n in ((RATIONAL, 3), (TruncatedSeriesRing(2), 2), (RATIONAL, 1))]
# The tensor(2) payloads over the budget: tensor(1000) at truncation 3 and series:2000000.
OVERSIZED = [dict(CHARACTERS[1], hopf="tensor(1000)"), dict(CHARACTERS[1], ring="series:2000000")]
OVERSIZED_INFINITESIMALS = [dict(INFINITESIMALS[1], hopf="tensor(1000)"),
                            dict(INFINITESIMALS[1], ring="series:2000000")]

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from([0.5, "", "x", "1/0", "1,2", "1e999999999", "[]", "v0", "[[", "ck",
                     "tensor(0)", "tensor(1000)", "series:0", "series:x", "series:2000000",
                     [], {}, ["1"], {"a": 1}]),
)
KEYS = st.sampled_from(["1", "[]", "[[]]", "[] []", "[[[]]]", "v0", "v1", "v0v1", "v7", "[[", ""])


@st.composite
def mutated(draw, base, depth=0):
    """A valid payload with up to two fields dropped, made junk or nested
    wrong; entries of a nested object or list are mutated the same way."""
    if isinstance(base, list):
        items = [draw(mutated(item, depth + 1)) for item in base]
        return draw(st.sampled_from([items, items[:1], items + items, []]))
    if not isinstance(base, dict) or depth > 2:
        return base
    data = dict(base)
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.one_of(st.sampled_from(sorted(base) or ["x"]), KEYS))
        how = draw(st.sampled_from(["drop", "junk", "nest", "recurse"]))
        if how == "drop":
            data.pop(key, None)
        elif how == "junk":
            data[key] = draw(JUNK)
        elif how == "nest":
            data[key] = {key: data.get(key)}
        else:
            data[key] = draw(mutated(data.get(key), depth + 1))
    return data


def payloads(bases):
    return st.one_of(st.sampled_from(bases).flatmap(mutated), JUNK)


OPS = {
    "inv": payloads(CHARACTERS + OVERSIZED),
    "log": payloads(CHARACTERS + OVERSIZED),
    "evolve": payloads([{"coeffs": [f]} for f in INFINITESIMALS + OVERSIZED_INFINITESIMALS]
                       + [{"coeffs": INFINITESIMALS[:1] * 2}]),
    "symplectic": payloads(TREE_MAPS + [dict(TREE_MAPS[0], ring="series:2000000")]),
}
TIMES = st.sampled_from(["1", "1/2", "-2", "abc", "1/0", ""])


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("op", sorted(OPS))
def test_fuzzed_payload_succeeds_or_prints_one_error_line(op):
    over_budget = []

    @FUZZ
    @given(data=OPS[op], t=TIMES)
    def check(data, t):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(json.dumps(data))
            argv = ["char", op, str(path)] + ([f"--t={t}"] if op == "evolve" else [])
            code, out, err = run_cli(argv)
        lines = err.splitlines()
        if code == 0:
            assert out and not lines
        else:
            assert code in (1, 2), (code, err)
            assert not out and len(lines) == 1 and lines[0].startswith("error: "), err
            if "exceeds" in err:
                assert code == 2, err
                over_budget.append(err)

    check()
    assert over_budget  # the oversized ids reached the size budget
