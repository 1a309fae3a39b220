"""End-to-end command tests driving main() in process.

Every JSON payload the tool prints is validated against the schema
shipped in the package, so the schemas cannot drift from the output.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tanfam.cli
import tanfam.geometry
import tanfam.selfcheck
from tanfam.cli import (
    EXIT_CONTRADICTS,
    EXIT_INDETERMINATE,
    EXIT_MALFORMED,
    EXIT_OK,
    MAX_CAP,
    MAX_GRID_RESOLUTION,
    main,
)

SRC = str(Path(tanfam.cli.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


def check_schema(payload, name):
    schema_dir = resources.files("tanfam") / "schemas"
    schema = json.loads((schema_dir / f"{name}.schema.json").read_text())
    jsonschema.validate(payload, schema)


# ---------------------------------------------------------------------------
# classify


def test_classify_fold(capsys):
    code, payload, _ = run_json(capsys, "classify", "--input", '{"u": "1 t^2"}')
    assert code == EXIT_OK
    assert payload["variant"] == "TypeI"
    assert payload["reason"] is None
    check_schema(payload, "classify")


def test_classify_negative_modulus(capsys):
    code, payload, _ = run_json(capsys, "classify", "--input", '{"u": "1 xi t^2"}')
    assert code == EXIT_OK
    assert payload["variant"] == "A1Minus"
    assert payload["a"] == "-1"
    assert payload["projection_form_applicable"] is False
    check_schema(payload, "classify")


def test_classify_from_invariants(capsys):
    code, payload, _ = run_json(
        capsys, "classify", "--input", '{"k0": "0", "k1": "1", "alpha": "1/2"}'
    )
    assert code == EXIT_OK
    assert payload["variant"] == "A1Plus"
    assert payload["a"] == "1/4"
    assert payload["projection_form_applicable"] is True
    check_schema(payload, "classify")


def test_classify_indeterminate_exit(capsys):
    code, payload, _ = run_json(capsys, "classify", "--input", '{"u": "1 t^4"}')
    assert code == EXIT_INDETERMINATE
    assert payload["variant"] == "IndeterminateAtOrder"
    check_schema(payload, "classify")


def test_classify_not_tangential_is_a_verdict(capsys):
    code, payload, _ = run_json(capsys, "classify", "--input", '{"u": "1 t"}')
    assert code == EXIT_OK
    assert payload["variant"] == "NotTangential"
    assert payload["a"] is None
    assert payload["reason"]
    check_schema(payload, "classify")


@pytest.mark.parametrize(
    "family, raw",
    [("HBranch", '{"k0": "0", "k1": "3", "alpha": "2"}'),
     ("ABranch", '{"k0": "0", "k1": "3", "alpha": "1"}')],
    ids=["H", "A"],
)
def test_branch_verdicts_fit_the_schema_at_every_order(capsys, family, raw):
    for cap in range(3, 11):
        for order in range(1, cap):
            code, payload, _ = run_json(
                capsys, "classify", "--input", raw, "--cap", str(cap), "--order", str(order)
            )
            assert code in (EXIT_OK, EXIT_INDETERMINATE), (cap, order)
            assert payload["variant"] == family
            check_schema(payload, "classify")


@pytest.mark.parametrize(
    "raw",
    [
        '{"u": "1 q^2"}',  # unknown variable
        '{"u": "1/0 t^2"}',  # bad coefficient
        "{not json",
        '{"k0": "1"}',  # invariants incomplete
        "[1, 2]",  # not an object
        "no-such-file.json",
        '{"u": 5}',  # polynomial texts must be strings
        '{"u": null}',
        '{"u": ["1 t^2"]}',
        '{"k0": 0, "k1": 1, "alpha": 2, "higher": 5}',
        '{"u": "1 t^2 + 1 xi^ t^3"}',  # empty exponent, once read as xi t^3
        '{"u": "1 t^-0"}',  # signed exponents: once read as the constant 1
        '{"u": "1 t^+2"}',
        '{"u": "1 t^1_0"}',  # once read as t^10
        '{"u": "1 t^x"}',
        '{"u": "1 xi t^2 - - 1 t^3"}',  # doubled signs: once read as -t^3
        '{"u": "1 xi t^2 - + 1 t^3"}',  # once read as +t^3
        '{"u": "1 xi t^2 + -"}',  # trailing sign: once dropped
        '{"u": "+"}',  # once read as 0
    ],
)
def test_classify_malformed_inputs(capsys, raw):
    code, out, err = run(capsys, "classify", "--input", raw)
    assert code == EXIT_MALFORMED
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    if raw == "[1, 2]":
        assert err == "error: input JSON must be an object\n"


@pytest.mark.parametrize("power", ["-0", "+2", "1_0", "x"])
def test_classify_names_the_term_of_a_bad_exponent(capsys, power):
    raw = json.dumps({"u": f"1 xi t^2 + 1 t^{power}"})
    code, out, err = run(capsys, "classify", "--input", raw)
    assert (code, out) == (EXIT_MALFORMED, "")
    assert err == (
        f"error: bad family input: exponent {power!r} is not a string of digits 0-9"
        f" in term '1 t^{power}'\n"
    )


def test_classify_rejects_u_with_k0(capsys):
    # u alone classifies as a = -7/4; the extra k0 must not be dropped silently
    code, out, err = run(
        capsys, "classify", "--input", '{"u": "1 xi t^2 + 3/2 t^3", "k0": "5"}'
    )
    assert code == EXIT_MALFORMED
    assert out == ""
    assert err.startswith("error:") and "k0" in err


def test_classify_rejects_unknown_family_key(capsys):
    # without the misspelt tail the family still classifies, so a dropped
    # key would go unnoticed
    code, out, err = run(
        capsys,
        "classify",
        "--input",
        '{"k0": "0", "k1": "1", "alpha": "1/2", "hihger": "1/3 t^4"}',
    )
    assert code == EXIT_MALFORMED
    assert out == ""
    assert err.startswith("error:") and "hihger" in err


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats()
    | st.text(max_size=12)
    | st.sampled_from(["1 t^2", "1 xi t^2 + 3/2 t^3", "1/3 t^4", "1/5", "-2", "0", "t^"])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_FAMILY_INPUTS = st.dictionaries(
    st.sampled_from(["u", "k0", "k1", "alpha", "higher", "extra"]), _JSON_VALUES, max_size=5
)


@settings(database=None, deadline=None, max_examples=80)
@given(_FAMILY_INPUTS)
def test_classify_fuzzed_input_exits_with_a_documented_code(data):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["classify", "--input", json.dumps(data)])
    assert code in (EXIT_OK, EXIT_MALFORMED, EXIT_INDETERMINATE, EXIT_CONTRADICTS)


def test_classify_file_input(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_text('{"u": "1 t^2"}')
    code, payload, _ = run_json(capsys, "classify", "--input", str(path))
    assert code == EXIT_OK
    assert payload["variant"] == "TypeI"


def test_classify_file_that_is_not_a_json_object_is_malformed(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1]")
    code, out, err = run(capsys, "classify", "--input", str(path))
    assert (code, out, err) == (EXIT_MALFORMED, "", "error: input JSON must be an object\n")


def test_classify_rejects_a_repeated_key(capsys):
    # the last "u" alone is indeterminate (exit 2); the first would classify
    code, out, err = run(capsys, "classify", "--input", '{"u": "1 xi t^2", "u": "1 t^3"}')
    assert (code, out) == (EXIT_MALFORMED, "")
    assert err == "error: input JSON repeats the key 'u'\n"


def test_classify_file_that_is_not_utf8_is_malformed(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_bytes(b'\xff\xfe{"u": "1 t^2"}')
    code, out, err = run(capsys, "classify", "--input", str(path))
    assert (code, out) == (EXIT_MALFORMED, "")
    assert err.startswith("error: cannot read input: 'utf-8' codec can't decode byte 0xff")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "raw, reason",
    [
        ('{"k0": ' + "1" * 5000 + ', "k1": 1, "alpha": 1}', "Exceeds the limit"),
        ('{"u": ' + "[" * 100_000, "maximum recursion depth"),
    ],
    ids=["integer-above-the-digit-limit", "deep-nesting"],
)
def test_classify_input_json_the_decoder_refuses_is_malformed(capsys, raw, reason):
    # both once ended in a traceback
    code, out, err = run(capsys, "classify", "--input", raw)
    assert (code, out) == (EXIT_MALFORMED, "")
    assert err.startswith("error: cannot read input: ") and reason in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "data, place",
    [
        ({"k0": "0", "k1": "1e5000", "alpha": "1"}, "k1: number '1e5000'"),
        ({"u": "1e5000 xi t^2 + 1 t^3"}, "number '1e5000' in term '1e5000 xi t^2'"),
        ({"k0": "0", "k1": "1e3000000", "alpha": "1"}, "k1: number '1e3000000'"),
        ({"k0": "0", "k1": "1", "alpha": "1e999999999"}, "alpha: number '1e999999999'"),
        ({"k0": "1e-1000", "k1": "1", "alpha": "1"}, "k0: number '1e-1000'"),
        ({"k0": "0", "k1": 10**1000, "alpha": "1"}, "k1: an integer"),
        ({"k0": "0", "k1": "1", "alpha": "1/" + "7" * 1001}, "alpha: number '1/7777"),
    ],
)
def test_classify_refuses_numbers_above_the_digit_bound(capsys, data, place):
    # 1e5000 once ended in a traceback after the whole classification ran,
    # when the payload was printed; 1e3000000 ran for over a minute
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", "--input", json.dumps(data))
    assert time.perf_counter() - start < 1
    assert (code, out) == (EXIT_MALFORMED, "")
    assert err.startswith(f"error: bad family input: {place}")
    assert "more than 1000 digits" in err and len(err.splitlines()) == 1


def test_classify_names_the_key_of_a_json_float(capsys):
    # the JSON number 1e5000 is a float (inf), refused as every float is
    raw = '{"k0": "0", "k1": 1e5000, "alpha": "1"}'
    code, out, err = run(capsys, "classify", "--input", raw)
    assert (code, out) == (EXIT_MALFORMED, "")
    assert err == (
        "error: bad family input: k1: expected int, Fraction, or 'p/q' string, got float\n"
    )


def _at_the_bound(rng):
    """A fraction whose numerator and denominator have 1000 digits each."""
    return f"{rng.randrange(10**999, 10**1000)}/{rng.randrange(10**999, 10**1000)}"


def test_numbers_at_the_digit_bound_classify_and_print(capsys):
    rng = random.Random(16)
    k1, alpha = _at_the_bound(rng), _at_the_bound(rng)
    for data in ({"k0": "0", "k1": k1, "alpha": alpha}, {"u": f"{k1} xi t^2 + {alpha} t^3"}):
        code, payload, err = run_json(capsys, "classify", "--input", json.dumps(data))
        assert (code, err) == (EXIT_OK, "")
        check_schema(payload, "classify")
        # a carries about four times the digits of k1 and alpha
        assert len(payload["a"]) > 3900
    code, out, _ = run(capsys, "classify", "--input", json.dumps({"u": "1e999 xi t^2 + 1 t^3"}))
    assert code == EXIT_OK and out


def test_classify_out_redirects_payload(capsys, tmp_path):
    out_file = tmp_path / "verdict.json"
    code, out, _ = run(
        capsys, "classify", "--input", '{"u": "1 t^2"}', "--out", str(out_file)
    )
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(out_file.read_text())["variant"] == "TypeI"


def test_classify_order_out_of_range(capsys):
    code, _, err = run(capsys, "classify", "--input", '{"u": "1 t^2"}', "--order", "9")
    assert code == EXIT_MALFORMED
    assert "--order" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_fold_sufficiency(capsys):
    code, payload, _ = run_json(capsys, "verify", "--kind", "fold-sufficiency")
    assert code == EXIT_OK
    assert payload["predicted"] is True and payload["measured"] is True
    assert payload["agrees"] is True
    assert payload["order"] == 4
    check_schema(payload, "verify")


@pytest.mark.parametrize("flags", [["--a", "1/5"], ["--b", "7"], ["--a", "1/5", "--b", "1"]])
def test_verify_fold_sufficiency_refuses_moduli(capsys, flags):
    # the fold check has no moduli; --a and --b were once ignored silently
    code, out, err = run(capsys, "verify", "--kind", "fold-sufficiency", *flags)
    assert (code, out) == (EXIT_MALFORMED, "")
    assert err == "error: --a/--b do not apply to fold-sufficiency\n"


def test_verify_ideal_block_generic_modulus(capsys):
    code, payload, _ = run_json(capsys, "verify", "--kind", "ideal-block", "--a", "1/5")
    assert code == EXIT_OK
    assert payload["params"] == {"a": "1/5", "b": "1"}
    assert payload["measured"] is True and payload["agrees"] is True
    check_schema(payload, "verify")


def test_verify_ideal_block_predicted_failure_agrees(capsys):
    code, payload, _ = run_json(capsys, "verify", "--kind", "ideal-block", "--a", "0")
    assert code == EXIT_OK
    assert payload["predicted"] is False and payload["measured"] is False
    assert payload["detail"]["witness"] is not None
    check_schema(payload, "verify")


def test_verify_ideal_block_contradiction_exits_three(capsys):
    # a = -1 sits on the excluded list, yet the block containment holds,
    # so the measurement contradicts the prediction and the exit says so
    code, payload, _ = run_json(capsys, "verify", "--kind", "ideal-block", "--a=-1")
    assert code == EXIT_CONTRADICTS
    assert payload["predicted"] is False and payload["measured"] is True
    assert payload["agrees"] is False
    check_schema(payload, "verify")


def test_verify_miniversal_degenerate_agrees(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--kind", "miniversal", "--a", "1/5", "--b", "0"
    )
    assert code == EXIT_OK
    assert payload["predicted"] is False and payload["measured"] is False
    check_schema(payload, "verify")


def test_verify_miniversal_stated_complement_contradiction(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--kind", "miniversal", "--a", "1/5", "--b", "1"
    )
    assert code == EXIT_CONTRADICTS
    assert payload["predicted"] is True and payload["measured"] is False
    assert payload["detail"]["dependent_complement_vectors"]
    check_schema(payload, "verify")


@pytest.mark.parametrize(
    "argv, default_order",
    [
        (["--kind", "fold-sufficiency"], 4),
        (["--kind", "ideal-block", "--a", "1/5"], 6),
        (["--kind", "miniversal", "--a", "1/5"], 6),
    ],
)
def test_verify_default_order_must_fit_under_the_cap(capsys, monkeypatch, argv, default_order):
    # the per-kind default order is held to the same 1..cap-1 rule as --order
    def never(*args, **kwargs):
        raise AssertionError("no tangent space may be built past the order check")

    for name in (
        "build_extended_tangent_space",
        "build_reduced_tangent_space",
        "miniversality_check",
    ):
        monkeypatch.setattr(tanfam.cli, name, never)
    code, out, err = run(capsys, "verify", *argv, "--cap", str(default_order))
    assert code == EXIT_MALFORMED
    assert out == ""
    assert err.startswith("error:") and "--order" in err
    assert len(err.strip().splitlines()) == 1
    monkeypatch.undo()
    code, payload, _ = run_json(capsys, "verify", *argv, "--cap", str(default_order + 1))
    assert code in (EXIT_OK, EXIT_CONTRADICTS)
    assert payload["order"] == default_order


def test_verify_needs_modulus(capsys):
    code, _, err = run(capsys, "verify", "--kind", "ideal-block")
    assert code == EXIT_MALFORMED
    assert "--a" in err


def test_verify_missing_kind_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["verify", "--kind", "ideal-block", "--a", "1/0"], "--a: invalid Fraction value: '1/0'"),
        (["verify", "--kind", "ideal-block", "--a", "1/5", "--b", "0/0"],
         "--b: invalid Fraction value: '0/0'"),
        (["sweep", "--a", "1/0"], "--a: invalid Fraction value: '1/0'"),
        (["verify", "--kind", "ideal-block", "--a", "½"], "--a: invalid Fraction value: '½'"),
    ],
)
def test_a_zero_denominator_is_a_bad_fraction_value(capsys, argv, bad):
    # a ZeroDivisionError once escaped argparse as a traceback
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {bad}\n")


@pytest.mark.parametrize(
    "argv, value",
    [
        (["verify", "--kind", "ideal-block", "--a"], "1e5000"),
        (["verify", "--kind", "miniversal", "--a", "1/5", "--b"], "1e999999999"),
        pytest.param(["sweep", "--a"], "-" + "9" * 1001, id="sweep-1001 digits"),
    ],
)
def test_moduli_above_the_digit_bound_are_bad_fraction_values(capsys, argv, value):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as excinfo:
        main([*argv[:-1], f"{argv[-1]}={value}"])
    assert time.perf_counter() - start < 1
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument {argv[-1]}: invalid Fraction value: {value!r}\n"
    )


def test_moduli_at_the_digit_bound_verify_and_print(capsys):
    rng = random.Random(16)
    a, b = "-" + _at_the_bound(rng), _at_the_bound(rng)
    code, payload, err = run_json(
        capsys, "verify", "--kind", "ideal-block", f"--a={a}", f"--b={b}"
    )
    assert (code, err) == (EXIT_OK, "")
    assert payload["params"] == {"a": str(Fraction(a)), "b": str(Fraction(b))}
    check_schema(payload, "verify")


# ---------------------------------------------------------------------------
# envelope


def test_envelope_type_two(capsys, tmp_path):
    svg = tmp_path / "env.svg"
    code, payload, _ = run_json(
        capsys,
        "envelope",
        "--input",
        '{"u": "1 xi t^2"}',
        "--grid",
        "128",
        "--out",
        str(svg),
    )
    assert code == EXIT_OK
    assert payload["branches"] == 2
    assert payload["cusps"] == 0
    assert len(payload["fits"]) == 2
    assert payload["svg"] == str(svg)
    assert svg.exists() and "<svg" in svg.read_text()
    check_schema(payload, "envelope")


def test_envelope_raw_components_and_domain(capsys, tmp_path):
    code, payload, _ = run_json(
        capsys,
        "envelope",
        "--input",
        '{"components": ["1 xi + 1 t", "1 t^2"]}',
        "--grid",
        "64",
        "--domain=-1.5,1.5,-1,1",
        "--out",
        str(tmp_path / "env.svg"),
    )
    assert code == EXIT_OK
    assert payload["branches"] == 1
    assert payload["grid"]["domain"] == [[-1.5, 1.5], [-1.0, 1.0]]
    check_schema(payload, "envelope")


def test_envelope_empty_window_notes_it(capsys, tmp_path):
    # constant Jacobian determinant: no criminant anywhere
    code, payload, _ = run_json(
        capsys,
        "envelope",
        "--input",
        '{"components": ["1 xi", "1 t"]}',
        "--grid",
        "32",
        "--out",
        str(tmp_path / "env.svg"),
    )
    assert code == EXIT_OK
    assert payload["branches"] == 0
    assert payload["note"] == "no criminant in the window"
    check_schema(payload, "envelope")


def test_envelope_fit_overflow_reports_null(capsys, tmp_path):
    # before, a NaN fit reached json.dumps and main() died with a traceback
    code, payload, _ = run_json(
        capsys, "envelope", "--input", '{"u": "1 xi t^2"}', "--grid", "16",
        "--domain", "1e60", "--out", str(tmp_path / "env.svg"),
    )
    assert code == EXIT_OK
    assert payload["branches"] == 2
    assert [fit["c"] for fit in payload["fits"]] == [None, None]
    check_schema(payload, "envelope")


def test_envelope_fit_with_overflowing_denominator_reports_null(capsys, tmp_path):
    # at 1e52 only sum(x**6) overflows; before, branch-0 read "c": 0.0
    code, payload, _ = run_json(
        capsys, "envelope", "--input", '{"u": "1 xi t^2"}', "--grid", "16",
        "--domain", "1e52", "--out", str(tmp_path / "env.svg"),
    )
    assert code == EXIT_OK
    assert [fit["c"] for fit in payload["fits"]] == [None, None]
    check_schema(payload, "envelope")


def test_envelope_determinant_overflow_is_malformed(capsys, tmp_path):
    # before, exit 0 with "no criminant in the window"
    out_path = tmp_path / "env.svg"
    code, out, err = run(
        capsys, "envelope", "--input", '{"u": "1 xi t^2"}', "--grid", "16",
        "--domain", "1e160", "--out", str(out_path),
    )
    assert code == EXIT_MALFORMED
    assert out == ""
    assert err.startswith("error:") and "not finite" in err
    assert not out_path.exists()


def test_envelope_whose_extent_overflows_draws_a_finite_picture(capsys, tmp_path):
    # every image point is finite, but x_max - x_min overflowed in the SVG
    # fit: exit 0 with 11 polylines reading "nan,320.000000 ..."
    out_path = tmp_path / "env.svg"
    code, payload, _ = run_json(
        capsys, "envelope", "--input", '{"components": ["2 xi + 1 t", "1/4 xi t^2"]}',
        "--domain=-8.9e307,8.9e307,-1e-300,1e-300", "--grid", "16", "--out", str(out_path),
    )
    assert code == EXIT_OK
    svg = out_path.read_text()
    assert "nan" not in svg and "inf" not in svg
    assert svg.count("<polyline") == payload["branches"] == 11
    check_schema(payload, "envelope")


def test_envelope_not_tangential_family_hints_components(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "envelope",
        "--input",
        '{"u": "1 t"}',
        "--out",
        str(tmp_path / "env.svg"),
    )
    assert code == EXIT_MALFORMED
    assert "components" in err


def test_envelope_non_string_component_is_malformed(capsys, tmp_path):
    out_file = tmp_path / "env.svg"
    code, out, err = run(
        capsys, "envelope", "--input", '{"components": [1, 2]}', "--out", str(out_file)
    )
    assert code == EXIT_MALFORMED
    assert out == ""
    assert err.startswith("error:") and "string" in err
    assert not out_file.exists()


@pytest.mark.parametrize(
    "extra", ['"u": "1 t"', '"k0": "0"', '"higher": "1 t^4"', '"note": "x"']
)
def test_envelope_rejects_components_with_other_keys(capsys, tmp_path, extra):
    # before, the components were traced and the other key dropped silently
    out_file = tmp_path / "env.svg"
    code, out, err = run(
        capsys,
        "envelope",
        "--input",
        '{"components": ["1 xi + 1 t", "1 t^2"], %s}' % extra,
        "--out",
        str(out_file),
    )
    assert code == EXIT_MALFORMED
    assert out == ""
    assert err.startswith("error:") and "components" in err
    assert extra.split('"')[1] in err
    assert not out_file.exists()


def test_envelope_rejects_component_list_of_wrong_length(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "envelope",
        "--input",
        '{"components": ["1 t"]}',
        "--out",
        str(tmp_path / "env.svg"),
    )
    assert code == EXIT_MALFORMED
    assert "two polynomial texts" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_writes_frames_and_manifest(capsys, tmp_path):
    out_dir = tmp_path / "sweep"
    code, payload, _ = run_json(
        capsys,
        "sweep",
        "--a=-1/2",
        "--lambdas=-0.1,0,0.1",
        "--grid",
        "32",
        "--out",
        str(out_dir),
    )
    assert code == EXIT_OK
    assert len(payload["cusp_counts"]) == 3
    assert payload["directory"] == str(out_dir)
    check_schema(payload, "sweep")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest == payload["manifest"]
    check_schema(manifest, "sweep-manifest")
    for entry in manifest["frames"]:
        frame = json.loads((out_dir / entry["file"]).read_text())
        check_schema(frame, "sweep-frame")
        assert frame["cusps"] == entry["cusps"]


def test_a_reused_sweep_directory_keeps_no_stale_frames(capsys, tmp_path):
    # before, the second sweep left frame-001 to frame-003 next to a
    # manifest that lists one frame
    out_dir = tmp_path / "d"
    out_dir.mkdir()
    (out_dir / "notes.txt").write_text("kept\n")
    for lambdas in ("--lambdas=-0.1,0,0.1,0.2", "--lambdas=0.1"):
        code, _, _ = run(capsys, "sweep", "--a", "1/5", lambdas, "--grid", "16", "--out", str(out_dir))
        assert code == EXIT_OK
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "frame-000.json", "manifest.json", "notes.txt"
    ]
    assert (out_dir / "notes.txt").read_text() == "kept\n"


def test_sweep_rejects_excluded_modulus(capsys, tmp_path):
    code, _, err = run(
        capsys, "sweep", "--a", "0", "--out", str(tmp_path / "s")
    )
    assert code == EXIT_MALFORMED
    assert err.startswith("error:")


def test_sweep_determinant_overflow_is_malformed(capsys, tmp_path):
    # before, exit 0 with 0 branches in the frame
    code, out, err = run(
        capsys, "sweep", "--a", "1/5", "--domain", "1e160", "--grid", "16",
        "--lambdas=0.1", "--out", str(tmp_path / "s"),
    )
    assert code == EXIT_MALFORMED
    assert out == ""
    assert err.startswith("error:") and "not finite" in err


@pytest.mark.parametrize(
    "argv, monomial",
    [
        (("sweep", "--a=-1e400", "--lambdas=0.1"), "xi^2 t"),
        (("envelope", "--input", '{"u": "1 xi t^2 + ' + "9" * 400 + ' t^3"}'), "t^3"),
        (("sweep", "--a", "1e-400", "--lambdas=0.1"), "xi^2 t"),
        (("envelope", "--input", '{"u": "1 xi t^2 + 1e-400 t^3"}'), "t^3"),
    ],
    ids=["sweep-a", "envelope-u", "sweep-a-tiny", "envelope-u-tiny"],
)
def test_a_coefficient_beyond_the_float_range_is_malformed(capsys, tmp_path, argv, monomial):
    # before, an OverflowError traceback from float() on a huge exact
    # coefficient, and a tiny one silently drawn as 0
    out_path = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--grid", "32", "--out", str(out_path))
    assert (code, out) == (EXIT_MALFORMED, "")
    assert err == f"error: the coefficient of {monomial} is beyond the float range\n"
    assert not out_path.exists()


@pytest.mark.parametrize("domain", ["1e-170", "1e-320"])
@pytest.mark.parametrize(
    "command",
    [("envelope", "--input", '{"u": "1 t^2"}'), ("sweep", "--a", "1/5", "--lambdas=0.1")],
)
def test_tiny_domain_never_ends_in_a_traceback(capsys, tmp_path, command, domain):
    # before, the product of two step lengths in _turn_degrees underflowed
    # to 0.0 and envelope died with a ZeroDivisionError
    code, out, err = run(
        capsys, *command, "--grid", "16", f"--domain={domain}", "--out", str(tmp_path / "o"),
    )
    assert code in (EXIT_OK, EXIT_MALFORMED)
    if code == EXIT_MALFORMED:
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    else:
        assert json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [
        # the cusp scan's row norms and cross products overflow
        ("envelope", "--input", '{"u": "1 xi t^2 + 1 t^3"}', "--grid", "64", "--domain=1e150"),
        ("sweep", "--a", "1/5", "--domain=1e100"),
        # only the envelope image overflows: x = 4 xi reaches 2e308
        ("envelope", "--input", '{"components": ["4 xi + 1 t", "1 t^2"]}', "--grid", "16",
         "--domain=-5e307,5e307,-1,1"),
    ],
    ids=["envelope-cusp-scan", "sweep-cusp-scan", "envelope-image"],
)
def test_huge_domain_exits_malformed_without_warnings(tmp_path, argv):
    """A fresh process, so that numpy's warnings would reach its stderr.

    Before, each run exited 0 with numpy RuntimeWarnings on stderr, and the
    envelope SVGs held inf or NaN vertices.
    """
    out_path = tmp_path / "out"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", "import sys, tanfam.cli; sys.exit(tanfam.cli.main())",
         *argv, "--out", str(out_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == EXIT_MALFORMED
    assert done.stdout == ""
    assert "RuntimeWarning" not in done.stderr
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1
    assert "shrink the domain" in done.stderr
    assert not out_path.exists()


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--b", "1e-320", "--mu1", "1e-10"], "--mu1"),
        (["--b", "1e300", "--mu1", "1e10"], "--mu1"),
        (["--b", "1e300", "--mu2", "1e10"], "--mu2"),
        (["--b=-1e300", "--mu2=-1e10"], "--mu2"),
    ],
)
def test_a_versal_term_beyond_the_float_range_names_its_flags(capsys, tmp_path, extra, flag):
    # before, "the coefficient of t^3 is beyond the float range", which names
    # neither --b nor the mu flag
    out_dir = tmp_path / "s"
    code, out, err = run(
        capsys, "sweep", "--a", "1/5", "--mode", "versal", "--lambdas=0.1", "--grid", "16",
        *extra, "--out", str(out_dir),
    )
    assert (code, out) == (EXIT_MALFORMED, "")
    assert err == f"error: --b times {flag} is beyond the float range\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "extra",
    [
        ["--b", "1e-320", "--mu2", "1e-10"],  # 1 + mu2 * b is in range
        ["--b", "0", "--mu1", "1e-10"],  # mu1 * b is exactly 0
    ],
)
def test_a_versal_term_whose_t3_coefficient_is_in_range_is_accepted(capsys, tmp_path, extra):
    code, _, _ = run(
        capsys, "sweep", "--a", "1/5", "--mode", "versal", "--lambdas=0.1", "--grid", "16",
        *extra, "--out", str(tmp_path / "s"),
    )
    assert code == EXIT_OK


def test_sweep_beaks_rejects_mu(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "sweep",
        "--a=-1/2",
        "--mu1",
        "0.1",
        "--out",
        str(tmp_path / "s"),
    )
    assert code == EXIT_MALFORMED
    assert "versal" in err
    assert not (tmp_path / "s").exists()


def test_sweep_bad_lambdas(capsys, tmp_path):
    code, _, err = run(
        capsys, "sweep", "--a=-1/2", "--lambdas", "x,y", "--out", str(tmp_path / "s")
    )
    assert code == EXIT_MALFORMED
    assert "--lambdas" in err


def test_sweep_lambdas_listing_no_value_are_malformed(capsys, tmp_path):
    out_dir = tmp_path / "s"
    code, out, err = run(capsys, "sweep", "--a=-1/2", "--lambdas=,", "--out", str(out_dir))
    assert (code, out, err) == (
        EXIT_MALFORMED, "", "error: --lambdas must list at least one value\n"
    )
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "extra",
    [
        ["--lambdas=inf"],
        ["--lambdas=0,nan"],
        ["--mode", "versal", "--mu1", "nan"],
        ["--mode", "versal", "--mu2=-inf"],
    ],
)
def test_sweep_non_finite_parameters_are_malformed(capsys, tmp_path, extra):
    out_dir = tmp_path / "s"
    code, out, err = run(
        capsys, "sweep", "--a", "1/5", "--grid", "16", *extra, "--out", str(out_dir)
    )
    assert code == EXIT_MALFORMED
    assert out == ""
    assert err.startswith("error:") and "finite" in err
    assert len(err.strip().splitlines()) == 1
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "extra, flag, text",
    [
        (["--lambdas=1e-400,1e-5"], "--lambdas", "1e-400"),
        (["--mode", "versal", "--mu1", "1e-400"], "--mu1", "1e-400"),
        (["--mu1", "1e-400"], "--mu1", "1e-400"),  # read as 0.0, it passed the beaks check
        (["--mode", "versal", "--mu2=-2e-324"], "--mu2", "-2e-324"),
    ],
)
def test_sweep_parameters_that_round_to_zero_are_malformed(capsys, tmp_path, extra, flag, text):
    # before, exit 0 with the parameter drawn as 0.0
    out_dir = tmp_path / "s"
    code, out, err = run(
        capsys, "sweep", "--a", "1/5", "--grid", "16", *extra, "--out", str(out_dir)
    )
    assert (code, out) == (EXIT_MALFORMED, "")
    assert err == f"error: {flag} value {text!r} is not 0 but rounds to 0.0 as a float\n"
    assert not out_dir.exists()


def test_sweep_accepts_every_written_zero(capsys, tmp_path):
    code, payload, _ = run_json(
        capsys, "sweep", "--a", "1/5", "--grid", "16", "--mode", "versal",
        "--lambdas=0,-0.0,0e5", "--mu1=-0.0", "--mu2", "0e5", "--out", str(tmp_path / "s"),
    )
    assert code == EXIT_OK
    frames = [json.loads((tmp_path / "s" / entry["file"]).read_text())
              for entry in payload["manifest"]["frames"]]
    assert [frame["params"]["lambda"] for frame in frames] == [0.0, -0.0, 0.0]
    assert {(frame["params"]["mu1"], frame["params"]["mu2"]) for frame in frames} == {(0.0, 0.0)}


# ---------------------------------------------------------------------------
# selfcheck


def test_selfcheck_quick(capsys):
    code, payload, _ = run_json(
        capsys, "selfcheck", "--rounds", "20", "--samples", "3"
    )
    assert code == EXIT_OK
    assert payload["ok"] is True
    assert [r["name"] for r in payload["results"]] == [
        "ring-laws",
        "leibniz",
        "chain-rule",
        "composition",
        "rank-oracle",
    ]
    check_schema(payload, "selfcheck")


def test_selfcheck_out_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "selfcheck",
        "--rounds",
        "10",
        "--samples",
        "2",
        "--out",
        str(out_file),
    )
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(out_file.read_text())["ok"] is True


@pytest.mark.parametrize("rounds, samples", [("0", "0"), ("0", "3"), ("5", "0"), ("-1", "2")])
def test_selfcheck_rejects_empty_runs(capsys, rounds, samples):
    code, out, err = run(capsys, "selfcheck", "--rounds", rounds, "--samples", samples)
    assert code == EXIT_MALFORMED
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# rendering and shared flags


def test_text_format(capsys):
    code, out, _ = run(
        capsys, "classify", "--input", '{"u": "1 t^2"}', "--format", "text"
    )
    assert code == EXIT_OK
    assert "variant: TypeI" in out
    assert "reason: none" in out
    assert "{" not in out


def test_text_format_renders_booleans_and_empty_objects(capsys):
    code, out, _ = run(capsys, "verify", "--kind", "fold-sufficiency", "--format", "text")
    assert code == EXIT_OK
    assert out == (
        "kind: fold-sufficiency\n"
        "params: {}\n"
        "order: 4\n"
        "predicted: true\n"
        "measured: true\n"
        "agrees: true\n"
        "detail:\n"
        "  holds: true\n"
        "  block:\n"
        "    - 2\n"
        "    - 3\n"
        "    - 2\n"
        "  order: 4\n"
        "  modulo_degree: 5\n"
        "  witness: none\n"
    )


def test_text_format_renders_lists_of_objects(capsys, tmp_path):
    code, out, _ = run(
        capsys, "envelope", "--input", '{"u": "1 xi t^2"}', "--grid", "64",
        "--out", str(tmp_path / "e.svg"), "--format", "text",
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    start = lines.index("fits:")
    assert lines[start + 1 : start + 3] == ["  -", "    tag: branch-0"]
    assert lines[start + 3].startswith("    c: ")
    assert lines[start + 4 : start + 6] == ["  -", "    tag: branch-1"]


def test_text_format_renders_empty_lists(capsys):
    code, out, _ = run(
        capsys, "selfcheck", "--rounds", "1", "--samples", "1", "--format", "text"
    )
    assert code == EXIT_OK
    assert out.count("\n    failures: []\n") == 5


def test_json_output_is_stable(capsys):
    _, first, _ = run(capsys, "classify", "--input", '{"u": "1 t^2"}')
    _, second, _ = run(capsys, "classify", "--input", '{"u": "1 t^2"}')
    assert first == second
    assert first.endswith("\n")


def test_grid_too_small(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "envelope",
        "--input",
        '{"u": "1 t^2"}',
        "--grid",
        "1",
        "--out",
        str(tmp_path / "e.svg"),
    )
    assert code == EXIT_MALFORMED
    assert "--grid" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["envelope", "--input", '{"u": "1 t^2"}'],
        ["sweep", "--a", "1/5"],
    ],
)
def test_grid_above_budget_is_malformed(capsys, tmp_path, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("nothing may be evaluated past the grid budget")

    monkeypatch.setattr(tanfam.geometry, "count_cusps", never)
    monkeypatch.setattr(tanfam.geometry, "deformation_sweep", never)
    out_path = tmp_path / "out"
    code, out, err = run(
        capsys, *argv, "--grid", str(MAX_GRID_RESOLUTION + 1), "--out", str(out_path)
    )
    assert MAX_GRID_RESOLUTION == 4096
    assert code == EXIT_MALFORMED
    assert out == ""
    assert err.startswith("error:") and "--grid" in err and "4096" in err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--input", '{"k0": "0", "k1": "3", "alpha": "2"}'],
        ["verify", "--kind", "miniversal", "--a", "1/5"],
        ["envelope", "--input", '{"u": "1 t^2"}'],
        ["sweep", "--a", "1/5"],
        ["selfcheck"],
    ],
)
def test_cap_above_budget_is_malformed(capsys, tmp_path, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("nothing may be built past the cap budget")

    for name in (
        "family_from_mapping",
        "build_extended_tangent_space",
        "build_reduced_tangent_space",
        "miniversality_check",
        "double_umbrella_form",
    ):
        monkeypatch.setattr(tanfam.cli, name, never)
    for name in ("count_cusps", "deformation_sweep"):
        monkeypatch.setattr(tanfam.geometry, name, never)
    monkeypatch.setattr(tanfam.selfcheck, "run_all", never)
    out_path = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--cap", str(MAX_CAP + 1), "--out", str(out_path))
    assert MAX_CAP == 28
    assert code == EXIT_MALFORMED
    assert out == ""
    assert err.startswith("error:") and "--cap" in err and "28" in err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--input", '{"u": "1 t^2"}'],
        ["verify", "--kind", "fold-sufficiency", "--order", "1"],
    ],
)
def test_cap_below_two_is_malformed(capsys, argv):
    code, out, err = run(capsys, *argv, "--cap", "1")
    assert (code, out, err) == (EXIT_MALFORMED, "", "error: --cap must be at least 2\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--a", "1/5", "--cap", "2", "--lambdas=-0.1,0,0.1", "--grid", "16"],
        ["verify", "--kind", "ideal-block", "--a", "1/5", "--cap", "2", "--order", "1"],
    ],
)
def test_normal_form_below_cap_three_is_malformed(capsys, tmp_path, argv):
    # cap 2 would drop the cubic terms and analyse a different map
    out_path = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == EXIT_MALFORMED
    assert out == ""
    assert err.startswith("error:") and "cap >= 3" in err
    assert len(err.strip().splitlines()) == 1
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--input", '{"u": "1 t^2 + 1 t^99"}'],
        ["envelope", "--input", '{"u": "1 xi t^2"}', "--cap", "2", "--grid", "16"],
        ["envelope", "--input", '{"components": ["1 xi + 1 t", "1 t^9"]}', "--grid", "16"],
        ["classify", "--cap", "2", "--input", '{"k0": "0", "k1": "1", "alpha": "1/2"}'],
        ["envelope", "--cap", "2", "--input", '{"k0": "0", "k1": "0", "alpha": "1"}'],
    ],
)
def test_terms_above_the_cap_are_malformed(capsys, tmp_path, argv):
    # before, the term was truncated away and the rest analysed without notice
    out_path = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == EXIT_MALFORMED
    assert out == ""
    assert err.startswith("error:") and "above the cap" in err
    assert len(err.strip().splitlines()) == 1
    assert not out_path.exists()


def test_zero_invariants_above_the_cap_are_accepted(capsys):
    code, payload, _ = run_json(
        capsys, "classify", "--cap", "2", "--input", '{"k0": "1", "k1": "0", "alpha": "0"}'
    )
    assert code == EXIT_OK
    assert payload["variant"] == "TypeI"


def test_cap_at_budget_is_accepted(capsys):
    code, payload, _ = run_json(
        capsys, "classify", "--input", '{"u": "1 t^2"}', "--cap", str(MAX_CAP)
    )
    assert code == EXIT_OK
    assert payload["variant"] == "TypeI"


def test_bad_domain(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "envelope",
        "--input",
        '{"u": "1 t^2"}',
        "--domain",
        "1,2,3",
        "--out",
        str(tmp_path / "e.svg"),
    )
    assert code == EXIT_MALFORMED
    assert "--domain" in err


@pytest.mark.parametrize("domain", ["inf", "-inf", "nan", "-1,1,-1,inf", "-inf,1,-1,1"])
def test_non_finite_domain_is_malformed(capsys, tmp_path, domain):
    out_file = tmp_path / "e.svg"
    code, out, err = run(
        capsys,
        "envelope",
        "--input",
        '{"u": "1 xi t^2"}',
        f"--domain={domain}",
        "--grid",
        "16",
        "--out",
        str(out_file),
    )
    assert code == EXIT_MALFORMED
    assert out == ""
    assert err.startswith("error:") and "--domain" in err
    assert not out_file.exists()
