"""The output digest in tools/output_digest.py."""

import importlib.util
import re
from pathlib import Path

import tanfam.emit

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", TOOL)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def test_one_sha256_line_per_case_and_two_runs_agree(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    first = list(output_digest.digest_lines())
    assert first == list(output_digest.digest_lines())
    assert len(first) == 67  # 46 CLI calls, 18 tangent spaces, 3 determinant grids
    cases = []
    for line in first:
        match = re.fullmatch(r"([0-9a-f]{64})  (\S.*)", line)
        assert match, line
        cases.append(match.group(2))
    assert len(set(cases)) == len(cases)
    assert not list(tmp_path.iterdir())  # every call wrote into its own directory


def test_the_written_file_counts(monkeypatch):
    # a larger picture changes the SVG file and nothing on stdout
    call = ["envelope", "--input", '{"u": "1 xi t^2"}', "--grid", "64"]
    before = output_digest.cli_digest(call)
    monkeypatch.setattr(tanfam.emit, "SVG_SIZE", 2 * tanfam.emit.SVG_SIZE)
    assert output_digest.cli_digest(call) != before
