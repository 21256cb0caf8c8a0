import json
import sys
import tracemalloc
from fractions import Fraction

import pytest

from hopfchar import cli
from hopfchar.characters import butcher_compose, char_from_tree_values, char_mul, tree_values
from hopfchar.convolution import TruncatedFunctional, conv_unit, delta
from hopfchar.evolution import FunctionalCurve
from hopfchar.hopf import ck_hopf
from hopfchar.rings import RATIONAL
from hopfchar.series import exp
from hopfchar.trees import Forest, LEAF, parse_tree

from helpers import antipode_by_edge_partitions

CK = ck_hopf()
CHAIN = parse_tree("[[]]")
F_LEAF = Forest([LEAF])


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_trees_listing(capsys):
    code, out = run(capsys, ["trees", "--max-order", "3"])
    assert code == 0
    assert "order 3 (2 trees):" in out
    assert "[[[]]]" in out and "[[] []]" in out
    code, out = run(capsys, ["trees", "--max-order", "1"])
    assert code == 0
    assert "order 1 (1 trees):" in out and "[]" in out


def test_trees_counts_delegate_to_enumerator(capsys):
    code, out = run(capsys, ["trees", "--max-order", "5", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert [len(data[str(n)]) for n in range(1, 6)] == [1, 1, 2, 4, 9]


def test_trees_cap_exceeded(capsys):
    code, _ = run(capsys, ["trees", "--max-order", "99"])
    assert code == 2


def test_structure_antipode_golden(capsys):
    code, out = run(capsys, ["structure", "[[]]", "--which", "antipode"])
    assert code == 0
    assert out.strip() == "-[[]] + [] []"


def test_structure_coproduct_unit(capsys):
    code, out = run(capsys, ["structure", "1", "--which", "coproduct"])
    assert code == 0
    assert out.strip() == "1 ⊗ 1"


def test_structure_coproduct_leaf(capsys):
    code, out = run(capsys, ["structure", "[]", "--which", "coproduct"])
    assert code == 0
    lines = out.strip().splitlines()
    assert set(lines) == {"1 ⊗ []", "[] ⊗ 1"}


def test_structure_tensor_instance(capsys):
    code, out = run(
        capsys,
        ["structure", "v0v1", "--which", "antipode", "--hopf", "tensor(2)"],
    )
    assert code == 0
    assert out.strip() == "v1v0"


def test_structure_parse_error(capsys):
    code, _ = run(capsys, ["structure", "[[", "--which", "antipode"])
    assert code == 1


@pytest.mark.parametrize("word", ["v\u00b2", "v\u0661"], ids=["superscript", "arabic-indic"])
def test_structure_word_with_non_ascii_digit_is_parse_error(capsys, word):
    assert run_error(capsys, ["structure", word, "--which", "antipode", "--hopf", "tensor(2)"]) == 1


@pytest.mark.parametrize("hopf", ["ck", "tensor(2)"])
def test_structure_of_the_empty_key_is_parse_error(capsys, hopf):
    assert run_error(capsys, ["structure", "", "--hopf", hopf, "--which", "coproduct"]) == 1


BUSHY12, CHAIN12 = "[" + "[]" * 11 + "]", "[" * 12 + "]" * 12


def traced(argv):
    """Exit code and traced peak of Python allocations of one CLI run."""
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


def test_structure_of_one_element_builds_only_its_rows(capsys):
    # The tensor(2) table of degree 11 is over the size budget, but the
    # 11-letter word's coproduct has 1,104 terms; an order-12 tree needs the
    # rows of its own keys, not the 20,299 forests of degree <= 12.
    argv = ["structure", "v0v1" * 5 + "v0", "--hopf", "tensor(2)", "--which", "coproduct"]
    code, out = run(capsys, argv)
    assert code == 0 and len(out.splitlines()) == 1104
    for tree in (BUSHY12, CHAIN12):
        code, peak = traced(["structure", tree, "--which", "coproduct"])
        assert code == 0 and len(capsys.readouterr().out.splitlines()) == 13
        assert peak < 8 << 20, (tree, peak)


def test_antipode_has_no_degree_cap(capsys):
    # The order cap and the 20-letter limit bound coproduct only.
    bushy13 = "[" + "[]" * 12 + "]"
    code, out = run(capsys, ["structure", bushy13, "--which", "antipode", "--format", "json"])
    expected = antipode_by_edge_partitions(CK, CK.parse_basis(bushy13))
    assert code == 0 and json.loads(out) == {b.serial: str(c) for b, c in expected}
    chain16 = "[" * 16 + "]" * 16
    code, out = run(capsys, ["structure", chain16, "--which", "antipode", "--format", "json"])
    assert code == 0 and len(json.loads(out)) == 231  # a forest of chains per partition of 16
    for pairs in (32, 500):  # 64 and 1,000 letters
        argv = ["structure", "v0v1" * pairs, "--hopf", "tensor(2)", "--which", "antipode"]
        code, out = run(capsys, argv)
        assert code == 0 and out.strip() == "v1v0" * pairs


def test_char_mul_matches_butcher_compose(tmp_path, capsys):
    a = char_from_tree_values({LEAF: Fraction(1), CHAIN: Fraction(1, 2)}, 4)
    b = char_from_tree_values({LEAF: Fraction(-2), CHAIN: Fraction(1, 3)}, 4)
    fa, fb = tmp_path / "a.json", tmp_path / "b.json"
    fa.write_text(a.functional.to_json())
    fb.write_text(b.functional.to_json())
    code, out = run(capsys, ["char", "mul", str(fa), str(fb)])
    assert code == 0
    product = TruncatedFunctional.from_json(out)
    composed = char_mul(a, b)
    assert product == composed.functional
    assert tree_values(composed) == {
        t: v
        for t, v in butcher_compose(
            tree_values(a), tree_values(b), 4
        ).items()
        if v != 0
    }


def test_char_exp_of_zero_is_unit(tmp_path, capsys):
    zero = TruncatedFunctional(CK, RATIONAL, 4, {})
    f = tmp_path / "zero.json"
    f.write_text(zero.to_json())
    code, out = run(capsys, ["char", "exp", str(f)])
    assert code == 0
    assert TruncatedFunctional.from_json(out) == conv_unit(CK, RATIONAL, 4)


def test_char_inv_and_log_roundtrip(tmp_path, capsys):
    phi = char_from_tree_values({LEAF: Fraction(2)}, 4)
    f = tmp_path / "phi.json"
    f.write_text(phi.functional.to_json())
    code, out = run(capsys, ["char", "inv", str(f)])
    assert code == 0
    inv = TruncatedFunctional.from_json(out)
    assert inv == phi.functional.precompose_antipode()
    code, out = run(capsys, ["char", "log", str(f)])
    assert code == 0
    assert TruncatedFunctional.from_json(out).value(F_LEAF) == 2


def test_char_evolve(tmp_path, capsys):
    d = delta(CK, RATIONAL, 4, F_LEAF)
    curve = FunctionalCurve([d])
    f = tmp_path / "curve.json"
    f.write_text(json.dumps(curve.to_json_dict()))
    code, out = run(capsys, ["char", "evolve", str(f)])
    assert code == 0
    assert TruncatedFunctional.from_json(out) == exp(d)
    code, out = run(capsys, ["char", "evolve", str(f), "--t", "1/2"])
    assert code == 0
    assert TruncatedFunctional.from_json(out) == exp(d.scale(Fraction(1, 2)))


def test_char_symplectic(tmp_path, capsys):
    payload = {"truncation": 2, "trees": {"[]": "1", "[[]]": "1/2"}}
    f = tmp_path / "map.json"
    f.write_text(json.dumps(payload))
    code, out = run(capsys, ["char", "symplectic", str(f)])
    assert code == 0
    assert out.strip() == "true (generators checked: 1)"
    payload["trees"]["[[]]"] = "0"
    f.write_text(json.dumps(payload))
    code, out = run(capsys, ["char", "symplectic", str(f), "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"symplectic": False, "generators": 1}


def test_char_apply_series_literal(tmp_path, capsys):
    d = delta(CK, RATIONAL, 4, F_LEAF)
    f = tmp_path / "d.json"
    f.write_text(d.to_json())
    code, out = run(capsys, ["char", "apply", str(f), "--series", "0,0,1"])
    assert code == 0
    squared = TruncatedFunctional.from_json(out)
    assert squared.value(Forest([LEAF, LEAF])) == 2
    code, _ = run(capsys, ["char", "apply", str(f)])  # missing --series
    assert code == 1


@pytest.mark.parametrize("op, option, value", [("evolve", "--t", "-1/2"),
                                               ("apply", "--series", "-1,1"),
                                               ("apply", "--ser", "-1,1"),
                                               ("exp", "--out", "-o.json"),
                                               ("exp", "--o", "-o.json")])
def test_negative_option_value_in_both_spellings(tmp_path, capsys, monkeypatch, op, option,
                                                  value):
    monkeypatch.chdir(tmp_path)  # --out writes a relative path
    d = delta(CK, RATIONAL, 4, F_LEAF)
    f = tmp_path / "in.json"
    f.write_text(json.dumps(FunctionalCurve([d]).to_json_dict()) if op == "evolve"
                 else d.to_json())
    outputs = []
    for argv in (["char", op, str(f), option, value], ["char", op, str(f), f"{option}={value}"]):
        monkeypatch.setattr(sys, "argv", ["hopfchar"] + argv)  # as the console script runs
        code, out = run(capsys, None)
        if op == "exp":  # the output went to the file named by --out
            assert out == ""
            target = tmp_path / value
            out = target.read_text()
            target.unlink()
        outputs.append((code, out))
    assert outputs[0] == outputs[1]
    code, out = outputs[0]
    assert code == 0
    want = {"evolve": exp(d.scale(Fraction(-1, 2))), "apply": d - conv_unit(CK, RATIONAL, 4),
            "exp": exp(d)}[op]
    assert TruncatedFunctional.from_json(out) == want


def test_tree_value_codec_roundtrip(tmp_path, capsys):
    from hopfchar.characters import (
        tree_values_from_json_dict,
        tree_values_to_json_dict,
    )

    values = {LEAF: Fraction(1), CHAIN: Fraction(1, 2)}
    data = tree_values_to_json_dict(values, 4)
    assert data == {"truncation": 4, "trees": {"[]": "1", "[[]]": "1/2"}}
    restored, truncation, ring = tree_values_from_json_dict(data)
    assert restored == values and truncation == 4 and ring is RATIONAL


def test_exit_code_domain_error(tmp_path, capsys):
    f = tmp_path / "unit.json"
    f.write_text(conv_unit(CK, RATIONAL, 4).to_json())
    code, _ = run(capsys, ["char", "exp", str(f)])  # unit is not infinitesimal
    assert code == 2


def test_oversized_inputs_hit_the_size_budget(tmp_path, capsys):
    # Each input is refused before its table or ring is allocated: the whole
    # command stays under a few MB of Python allocations.
    tensor = tmp_path / "tensor.json"
    tensor.write_text(json.dumps(
        {"hopf": "tensor(1000)", "ring": "rational", "truncation": 10, "values": {"1": "1"}}))
    series = tmp_path / "series.json"
    series.write_text(json.dumps(
        {"hopf": "ck", "ring": "series:1000000000", "truncation": 2, "values": {}}))
    order13 = "[" + "[]" * 12 + "]"
    for argv in (["char", "inv", str(tensor)], ["char", "inv", str(series)],
                 ["structure", order13, "--which", "coproduct"],
                 ["structure", "v0v1" * 32, "--hopf", "tensor(2)", "--which", "coproduct"]):
        code, peak = traced(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert "exceeds" in err
        assert peak < 4 << 20, (argv, peak)


def test_exit_code_io_and_parse_errors(tmp_path, capsys):
    code, _ = run(capsys, ["char", "exp", str(tmp_path / "missing.json")])
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, ["char", "exp", str(bad)])
    assert code == 1


def test_emitted_json_reparses_and_is_deterministic(tmp_path, capsys):
    phi = char_from_tree_values({LEAF: Fraction(1), CHAIN: Fraction(1, 3)}, 4)
    f = tmp_path / "phi.json"
    f.write_text(phi.functional.to_json())
    _, first = run(capsys, ["char", "inv", str(f)])
    _, second = run(capsys, ["char", "inv", str(f)])
    assert first == second
    reparsed = TruncatedFunctional.from_json(first)
    assert reparsed.to_json() + "\n" == first
    # canonical ordering: keys sorted by (degree, serialization)
    keys = list(json.loads(first)["values"])
    parsed = [CK.parse_basis(k) for k in keys]
    assert sorted(parsed, key=lambda b: (b.degree, b.serial)) == parsed


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out = run(
        capsys,
        ["structure", "[[]]", "--which", "antipode", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    assert target.read_text().strip() == "-[[]] + [] []"


def run_error(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert captured.out == ""
    return code


def write_functional(tmp_path, data) -> str:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return str(path)


LEAF_CHAR = {"hopf": "ck", "ring": "rational", "truncation": 2,
             "values": {"1": "1", "[]": "1", "[] []": "1"}}


def test_inv_value_above_truncation_is_overflow(tmp_path, capsys):
    path = write_functional(tmp_path, dict(LEAF_CHAR, truncation=1))
    assert run_error(capsys, ["char", "inv", path]) == 2


def test_inv_series_ring_of_modulus_zero_is_bad_id(tmp_path, capsys):
    path = write_functional(tmp_path, dict(LEAF_CHAR, ring="series:0"))
    assert run_error(capsys, ["char", "inv", path]) == 1


def test_inv_fractional_truncation_is_malformed(tmp_path, capsys):
    path = write_functional(tmp_path, dict(LEAF_CHAR, truncation="2.5"))
    assert run_error(capsys, ["char", "inv", path]) == 1


def test_inv_negative_truncation_is_out_of_range(tmp_path, capsys):
    path = write_functional(tmp_path, dict(LEAF_CHAR, truncation=-1))
    assert run_error(capsys, ["char", "inv", path]) == 2


def test_inv_top_level_array_is_malformed(tmp_path, capsys):
    path = write_functional(tmp_path, [LEAF_CHAR])
    assert run_error(capsys, ["char", "inv", path]) == 1


def test_trees_max_order_zero_is_out_of_range(capsys):
    assert run_error(capsys, ["trees", "--max-order", "0"]) == 2


def write_payload(tmp_path, data) -> str:
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "op, data",
    [
        ("inv", dict(LEAF_CHAR, values={"[]": 1})),
        ("inv", dict(LEAF_CHAR, values=["1"])),
        ("symplectic", {"truncation": 2, "trees": {"[]": 1}}),
        ("symplectic", {"truncation": 2, "trees": ["[]"]}),
        ("evolve", {"coeffs": {"a": 1}}),
        ("evolve", {"coeffs": [5]}),
    ],
    ids=["values-number", "values-list", "trees-number", "trees-list",
         "coeffs-object", "coeffs-number"],
)
def test_malformed_json_shape_is_parse_error(tmp_path, capsys, op, data):
    assert run_error(capsys, ["char", op, write_payload(tmp_path, data)]) == 1


def test_unread_options_are_refused(tmp_path, capsys):
    path = write_functional(tmp_path, LEAF_CHAR)
    for extra in (["-N", "2"], ["--ring", "series:3"], ["--hopf", "ck"]):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["char", "inv", path, *extra])
        assert exit_info.value.code != 0
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "op, data",
    [
        ("inv", dict(LEAF_CHAR, hopf=5)),
        ("inv", dict(LEAF_CHAR, ring=5)),
        ("symplectic", {"truncation": 2, "ring": 3, "trees": {}}),
    ],
    ids=["hopf-number", "ring-number", "tree-map-ring-number"],
)
def test_non_string_id_is_parse_error(tmp_path, capsys, op, data):
    assert run_error(capsys, ["char", op, write_payload(tmp_path, data)]) == 1


@pytest.mark.parametrize("key", ["v\u00b2", "v\u0661"], ids=["superscript", "arabic-indic"])
def test_char_word_key_with_non_ascii_digit_is_parse_error(tmp_path, capsys, key):
    data = {"hopf": "tensor(2)", "ring": "rational", "truncation": 1,
            "values": {"1": "1", key: "1"}}
    assert run_error(capsys, ["char", "inv", write_payload(tmp_path, data)]) == 1


def test_char_empty_word_key_is_parse_error(tmp_path, capsys):
    data = {"hopf": "tensor(2)", "ring": "rational", "truncation": 1, "values": {"": "1"}}
    assert run_error(capsys, ["char", "inv", write_payload(tmp_path, data)]) == 1


def test_char_two_spellings_of_one_key_is_parse_error(tmp_path, capsys):
    data = dict(LEAF_CHAR, truncation=3, values={"1": "1", "[[]] []": "1", "[] [[]]": "2"})
    assert run_error(capsys, ["char", "inv", write_payload(tmp_path, data)]) == 1


@pytest.mark.parametrize("t", ["abc", "1/0"])
def test_evolve_bad_end_time_is_parse_error(tmp_path, capsys, t):
    curve = FunctionalCurve([delta(CK, RATIONAL, 2, F_LEAF)])
    path = write_payload(tmp_path, curve.to_json_dict())
    assert run_error(capsys, ["char", "evolve", path, "--t", t]) == 1


def test_missing_field_is_named(tmp_path, capsys):
    data = {k: v for k, v in LEAF_CHAR.items() if k != "hopf"}
    assert cli.main(["char", "inv", write_payload(tmp_path, data)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: missing field 'hopf' (at offset 0)"]


@pytest.mark.parametrize("op, count", [("mul", 1), ("mul", 3), ("inv", 3), ("exp", 2),
                                       ("log", 3), ("evolve", 2), ("apply", 3),
                                       ("symplectic", 3)])
def test_input_file_count_is_checked(tmp_path, capsys, op, count):
    """Extra or missing input files are refused before any file is read."""
    path = write_functional(tmp_path, LEAF_CHAR)
    inputs = [path, path, str(tmp_path / "missing.json")][:count]
    extra = ["--series", "1,1"] if op == "apply" else []
    wanted = "two input files" if op == "mul" else "one input file"
    assert cli.main(["char", op, *inputs, *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {op} needs exactly {wanted} (at offset 0)"]


@pytest.mark.parametrize("truncation", [0, 1])
def test_symplectic_below_truncation_two_checks_no_pairs(tmp_path, capsys, truncation):
    path = write_payload(tmp_path, {"truncation": truncation, "trees": {"[]": "1"}})
    code, out = run(capsys, ["char", "symplectic", path])
    assert code == 0
    assert out.strip() == "true (generators checked: 0)"


INFINITESIMAL = {"hopf": "ck", "ring": "rational", "truncation": 3, "values": {"[]": "1"}}
HUGE = "1e9999999"  # 10**9999999 alone takes 4 MB


@pytest.mark.parametrize("argv", [
    ["exp", dict(INFINITESIMAL, values={"[]": HUGE})],
    ["exp", dict(INFINITESIMAL, ring="series:1", values={"[]": "1," + HUGE})],
    ["apply", INFINITESIMAL, "--series", "0," + HUGE],
    ["evolve", {"coeffs": [INFINITESIMAL]}, "--t", "2e-9999999"],
], ids=["value", "series-value", "series", "t"])
def test_huge_exponent_is_parse_error(tmp_path, capsys, argv):
    """A short literal whose exponent is beyond ``sys.get_int_max_str_digits()``
    in magnitude is refused (exit 1) before 10**exponent is computed."""
    op, payload, *options = argv
    argv = ["char", op, write_payload(tmp_path, payload), *options]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "exponent magnitude over" in captured.err
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("ring, value", [("rational", "1e1500"), ("series:1", "1e1500,1")])
def test_result_beyond_the_digit_limit_is_resource_error(tmp_path, capsys, ring, value):
    """Every input is under the digit limit but exp's degree-3 values are not:
    exit 2, naming the first basis element written out."""
    path = write_payload(tmp_path, dict(INFINITESIMAL, ring=ring, values={"[]": value}))
    assert cli.main(["char", "exp", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: the value on [[[]]] has more than {sys.get_int_max_str_digits()} digits"]
