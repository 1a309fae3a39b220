"""The library example in README.md runs and gives what its comments say."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1, "README.md should hold one python block"
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    label, basis = namespace["label"], namespace["basis"]
    assert (label.variant, label.a, label.projection_form_applicable) == (
        "A1Plus", Fraction(1, 4), True,
    )
    assert basis.codimension == 3
    assert namespace["contains_ideal_block"](basis, 3, 5, 4).holds is True
