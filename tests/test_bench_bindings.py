"""The traced benchmark run wraps hopfchar functions and methods by name
(``perfbench/spans.py``).  Renaming or removing one of them, or moving a
method to a base class, makes ``--trace 1`` fail, so the names are pinned
here."""

import importlib
import importlib.util
import random
from pathlib import Path

from hopfchar import characters, series
from hopfchar.characters import Character, InfinitesimalCharacter, char_exp, char_log
from hopfchar.evolution import FunctionalCurve, Poly, evolve
from hopfchar.hopf import ck_hopf
from hopfchar.rings import RATIONAL
from sampling import random_character, random_infinitesimal

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    for targets in _spans().FUNCTIONS.values():
        for mod_name, attr in targets:
            module = importlib.import_module(f"hopfchar.{mod_name}")
            assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"


def test_traced_methods_are_defined_on_their_own_class():
    spans = _spans()
    for table in (spans.METHODS, spans.COUNTED):
        for targets in table.values():
            for mod_name, cls_name, attr in targets:
                cls = getattr(importlib.import_module(f"hopfchar.{mod_name}"), cls_name)
                assert attr in cls.__dict__, f"{cls_name}.{attr}"


def test_evolution_multiplies_through_the_poly_class(monkeypatch):
    """``evolution.poly_mul.calls`` counts the class attribute
    ``Poly.__mul__``, so the solver must look it up on every product."""
    calls = []
    original = Poly.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    rng = random.Random(76)
    curve = FunctionalCurve([random_infinitesimal(ck_hopf(), RATIONAL, 3, rng).functional])
    evolve(curve, 1)
    assert calls


def _count_apply_series(monkeypatch) -> list:
    """Patch ``series.apply_series`` with a wrapper that appends to the
    returned list on each call."""
    calls = []
    original = series.apply_series

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(series, "apply_series", counting)
    return calls


def test_char_exp_calls_apply_series_through_the_module(monkeypatch):
    """The layer gate of ``--trace 1`` wants ``series.apply_series.calls`` on
    every workload, and that span wraps the module attribute, so ``char_exp``
    must look ``apply_series`` up on ``hopfchar.series``."""
    calls = _count_apply_series(monkeypatch)
    char_exp(random_infinitesimal(ck_hopf(), RATIONAL, 3, random.Random(79)))
    assert calls


def test_char_log_calls_apply_series_through_the_module(monkeypatch):
    """As for ``char_exp``: ``char_log`` runs Horner on the generators, so it
    must look ``apply_series`` up on ``hopfchar.series`` for the span to see it."""
    calls = _count_apply_series(monkeypatch)
    char_log(random_character(ck_hopf(), RATIONAL, 3, random.Random(78)))
    assert calls


def test_membership_checks_call_the_predicates_through_the_module(monkeypatch):
    """``characters.character_violation.calls`` and
    ``characters.infinitesimal_violation.calls`` count wrappers set on the
    module attributes, so the checked constructors must look them up there."""
    rng = random.Random(80)
    f = random_character(ck_hopf(), RATIONAL, 3, rng).functional
    g = random_infinitesimal(ck_hopf(), RATIONAL, 3, rng).functional
    calls = []

    def counting(name):
        original = getattr(characters, name)

        def wrapper(phi):
            calls.append(name)
            return original(phi)
        return wrapper

    for name in ("character_violation", "infinitesimal_violation"):
        monkeypatch.setattr(characters, name, counting(name))
    Character(f)
    assert calls == ["character_violation"]
    InfinitesimalCharacter(g)
    assert calls == ["character_violation", "infinitesimal_violation"]
