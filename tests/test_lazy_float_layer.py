"""The float layer (geometry, emit and numpy) loads on first use only.

Each test runs in a fresh interpreter, since this test session has long
since imported numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tanfam

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
