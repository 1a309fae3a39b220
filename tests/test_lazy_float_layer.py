"""A fresh process loads only what its command runs.

The float layer (geometry, emit and numpy) and the self-check suites
load on first use only, and the exact commands never import
``dataclasses`` (with ``inspect``, ``ast`` and ``dis`` behind it), so
their exact-layer records are named tuples.  The start-up tests run in
a fresh interpreter, since this test session has long since imported
all of these.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tanfam
from tanfam import (
    MODE_VERSAL,
    BlockCheck,
    BranchIndex,
    FamilyGerm,
    SingularityLabel,
    TruncatedPoly,
    double_umbrella_form,
)
from tanfam.jets import SOURCE_VARS, criminant, deform
from tanfam.selfcheck import SuiteResult

SRC = str(Path(tanfam.__file__).resolve().parents[1])


def fresh(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


RUN_MAIN = """
import contextlib, io, json, sys
import tanfam.cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = tanfam.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "err": err.getvalue(), "numpy": "numpy" in sys.modules}))
"""


def run_main(argv):
    return fresh(RUN_MAIN, json.dumps(argv))


@pytest.mark.parametrize(
    "argv, code",
    [
        (["classify", "--input", '{"u": "1 xi t^2"}', "--format", "text"], 0),
        (["classify", "--input", '{"k0": "0", "k1": "3", "alpha": "2"}'], 0),
        (["classify", "--input", '{"u": "1 t"}'], 0),  # NotTangential
        (["verify", "--kind", "fold-sufficiency"], 0),
        (["verify", "--kind", "ideal-block", "--a", "1/5"], 0),
        (["verify", "--kind", "miniversal", "--a", "1/5"], 3),
        (["selfcheck", "--rounds", "1", "--samples", "2"], 0),
        (["classify", "--input", "{not json"], 1),
        (["verify", "--kind", "ideal-block"], 1),
    ],
)
def test_exact_commands_never_import_numpy(argv, code):
    result = run_main(argv)
    assert result["code"] == code
    assert result["numpy"] is False


def test_domain_on_an_exact_command_is_still_checked():
    result = run_main(["classify", "--input", '{"u": "1 xi t^2"}', "--domain", "inf"])
    assert result["code"] == 1
    assert result["err"] == (
        "error: bad --domain value 'inf': grid rectangle bounds must be finite\n"
    )


ENVELOPE = ["envelope", "--input", '{"u": "1 t^2"}', "--out", os.devnull]


@pytest.mark.parametrize(
    "argv, domain, message",
    [
        (ENVELOPE, "inf", "bad --domain value 'inf': grid rectangle bounds must be finite"),
        (ENVELOPE, "-1,1,nan,1",
         "bad --domain value '-1,1,nan,1': grid rectangle bounds must be finite"),
        (ENVELOPE, "0", "bad --domain value '0': grid rectangle is degenerate"),
        (ENVELOPE, "1,-1,-1,1", "bad --domain value '1,-1,-1,1': grid rectangle is degenerate"),
        (ENVELOPE, "wide", "bad --domain value 'wide': could not convert string to float: 'wide'"),
        (ENVELOPE, "1,2", "--domain takes a half-width or 'ximin,ximax,tmin,tmax'"),
        (["sweep", "--a", "1/5", "--out", os.devnull], "-inf",
         "bad --domain value '-inf': grid rectangle bounds must be finite"),
        (["classify", "--input", '{"u": "1 t^2"}'], "-2",
         "bad --domain value '-2': grid rectangle is degenerate"),
    ],
)
def test_a_malformed_domain_exits_before_numpy_loads(argv, domain, message):
    # the same exit code and error line as when GridSpec found the fault
    result = run_main([*argv, f"--domain={domain}"])
    assert result == {"code": 1, "err": f"error: {message}\n", "numpy": False}


def test_a_domain_on_an_exact_command_does_not_load_numpy():
    result = run_main(["classify", "--input", '{"u": "1 xi t^2"}', "--domain=-2,1,0,3"])
    assert (result["code"], result["numpy"]) == (0, False)


def test_envelope_loads_the_float_layer():
    result = run_main(["envelope", "--input", '{"u": "1 t^2"}', "--grid", "8", "--out", os.devnull])
    assert result["code"] == 0
    assert result["numpy"] is True


def test_import_registers_the_float_layer_without_loading_numpy():
    # bench/tracing.py reads sys.modules["tanfam.geometry"] right after
    # importing the package, so the lazy module must be registered.
    result = fresh(
        "import json, sys, tanfam\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules,"
        " 'geometry': 'tanfam.geometry' in sys.modules,"
        " 'emit': 'tanfam.emit' in sys.modules}))"
    )
    assert result == {"numpy": False, "geometry": True, "emit": True}


def test_the_deformed_map_and_its_criminant_form_without_numpy():
    script = (
        "import json, sys\n"
        "from fractions import Fraction\n"
        "from tanfam import MODE_VERSAL, double_umbrella_form\n"
        "from tanfam.jets import criminant, deform\n"
        "base = double_umbrella_form(Fraction(1, 5), Fraction(1, 3))\n"
        "germ = deform(base, -0.05, Fraction(1, 7), 0.028, MODE_VERSAL)\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules,"
        " 'texts': [*germ.to_texts(), criminant(germ).to_text()]}))"
    )
    germ = deform(
        double_umbrella_form(Fraction(1, 5), Fraction(1, 3)), -0.05, Fraction(1, 7), 0.028,
        MODE_VERSAL,
    )
    want = [*germ.to_texts(), criminant(germ).to_text()]
    assert fresh(script) == {"numpy": False, "texts": want}


def test_every_public_name_resolves():
    result = fresh(
        "import json, sys, tanfam\n"
        "names = {}\n"
        "exec('from tanfam import *', names)\n"
        "import tanfam.geometry as geometry, tanfam.emit as emit\n"
        "print(json.dumps({\n"
        "    'missing': [n for n in tanfam.__all__ if n not in names],\n"
        "    'undir': sorted(set(tanfam.__all__) - set(dir(tanfam))),\n"
        "    'same': tanfam.GridSpec is geometry.GridSpec and tanfam.emit_svg is emit.emit_svg,\n"
        "}))"
    )
    assert result == {"missing": [], "undir": [], "same": True}


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tanfam.no_such_name  # noqa: B018


def test_an_unknown_name_loads_nothing():
    result = fresh(
        "import json, sys, tanfam\n"
        "try:\n"
        "    tanfam.no_such_name\n"
        "    error = None\n"
        "except AttributeError as exc:\n"
        "    error = str(exc)\n"
        "numpy_after_get = 'numpy' in sys.modules\n"
        "has = hasattr(tanfam, 'no_such_name')\n"
        "print(json.dumps({\n"
        "    'error': error, 'numpy_after_get': numpy_after_get, 'has': has,\n"
        "    'numpy_after_has': 'numpy' in sys.modules,\n"
        "    'undir': sorted(set(tanfam.__all__) - set(dir(tanfam))),\n"
        "}))"
    )
    assert result == {
        "error": "module 'tanfam' has no attribute 'no_such_name'",
        "numpy_after_get": False,
        "has": False,
        "numpy_after_has": False,
        "undir": [],
    }


# ---------------------------------------------------------------------------
# What else a fresh process loads

RUN_MAIN_MODULES = """
import contextlib, io, json, sys, types
import tanfam.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = tanfam.cli.main(json.loads(sys.argv[1]))
print(json.dumps({
    "code": code,
    "modules": sorted(sys.modules),
    # LazyLoader turns the module into a plain module when its body runs
    "selfcheck_ran": type(sys.modules["tanfam.selfcheck"]) is types.ModuleType,
}))
"""

HEAVY = {"dataclasses", "inspect"}


@pytest.fixture(scope="module")
def bare_heavy():
    """The HEAVY modules a bare interpreter loads before any tanfam code."""
    return HEAVY & set(fresh("import json, sys\nprint(json.dumps(sorted(sys.modules)))"))


@pytest.mark.parametrize(
    "argv, code",
    [
        (["classify", "--input", '{"u": "1 xi t^2 + 1/2 t^3"}'], 0),
        (["verify", "--kind", "ideal-block", "--a", "1/5"], 0),
        (["verify", "--kind", "miniversal", "--a", "1/5"], 3),
        (["classify", "--input", "{not json"], 1),
        (["verify", "--kind", "ideal-block"], 1),
    ],
)
def test_exact_commands_skip_dataclasses_and_the_selfcheck_body(argv, code, bare_heavy):
    result = fresh(RUN_MAIN_MODULES, json.dumps(argv))
    assert result["code"] == code
    assert HEAVY & set(result["modules"]) <= bare_heavy
    assert result["selfcheck_ran"] is False


def test_selfcheck_loads_neither_numpy_nor_dataclasses(bare_heavy):
    result = fresh(RUN_MAIN_MODULES, json.dumps(["selfcheck", "--rounds", "1", "--samples", "2"]))
    assert result["code"] == 0
    assert result["selfcheck_ran"] is True
    assert "numpy" not in result["modules"]
    assert HEAVY & set(result["modules"]) <= bare_heavy


# ---------------------------------------------------------------------------
# The exact-layer records are named tuples: same fields, defaults and JSON

def _germ():
    return double_umbrella_form(Fraction(1, 5), 1, cap=4)


RECORDS = [
    (
        FamilyGerm,
        {"u": TruncatedPoly.from_text(SOURCE_VARS, "1 xi t^2 + 1/2 t^3", 4)},
        None,
    ),
    (
        BranchIndex,
        {"family": "H", "order": 7, "resolved": False, "lower_bound": 3},
        {
            "family": "H",
            "order": 7,
            "resolved": False,
            "n": None,
            "lower_bound": 3,
            "essential_degree": None,
        },
    ),
    (
        SingularityLabel,
        {
            "variant": "A1Plus",
            "a": Fraction(1, 5),
            "projection_form_applicable": True,
            "branch": BranchIndex("A", 5, True, n=3, essential_degree=3),
            "order": 5,
            "germ": _germ(),
        },
        {
            "variant": "A1Plus",
            "a": "1/5",
            "projection_form_applicable": True,
            "branch": {
                "family": "A",
                "order": 5,
                "resolved": True,
                "n": 3,
                "lower_bound": None,
                "essential_degree": 3,
            },
            "order": 5,
            "parameterization": list(_germ().to_texts()),
        },
    ),
    (
        BlockCheck,
        {"holds": True, "block": (3, 5, 4), "order": 6, "modulo_degree": 7},
        {"holds": True, "block": [3, 5, 4], "order": 6, "modulo_degree": 7, "witness": None},
    ),
    (
        SuiteResult,
        {"name": "demo", "rounds": 3, "seed": 1, "failures": (), "elapsed": 0.01234},
        {"name": "demo", "rounds": 3, "seed": 1, "ok": True, "failures": [], "elapsed": 0.012},
    ),
]


@pytest.mark.parametrize(
    "cls, fields, payload", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS]
)
def test_records_keep_keywords_json_hash_and_immutability(cls, fields, payload):
    record = cls(**fields)
    for name, value in fields.items():
        assert getattr(record, name) == value
    if payload is not None:
        assert record.to_json() == payload
    copy = cls(**fields)
    assert copy == record and hash(copy) == hash(record)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    assert getattr(record, name) == fields[name]


def test_record_defaults():
    assert SingularityLabel("TypeI").to_json() == {
        "variant": "TypeI",
        "a": None,
        "projection_form_applicable": None,
        "branch": None,
        "order": None,
        "parameterization": None,
    }
    index = BranchIndex("A", 4, True)
    assert (index.n, index.lower_bound, index.essential_degree) == (None, None, None)
    assert BlockCheck(False, (1, 1, 1), 3, 4).witness is None


def test_family_germ_properties():
    germ = FamilyGerm(**RECORDS[0][1])
    assert (germ.k0, germ.k1, germ.alpha) == (Fraction(0), Fraction(1), Fraction(1, 2))
    assert germ.invariants == (Fraction(0), Fraction(1), Fraction(1, 2))
    assert germ.cap == 4
    with pytest.raises(AttributeError):
        germ.k0 = Fraction(1)
    assert germ.k0 == 0


@pytest.mark.parametrize("holds", [True, False])
def test_block_check_truth_is_its_verdict(holds):
    check = BlockCheck(holds, (2, 3, 2), 4, 5, {"slot": 2, "monomial": "t^3"})
    assert bool(check) is holds
    assert check.to_json()["witness"] == {"slot": 2, "monomial": "t^3"}
