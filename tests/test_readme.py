"""The README's Python examples run, in order, in one namespace."""

import re
from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", _README.read_text(), re.M | re.S)
    assert len(blocks) >= 3
    namespace: dict = {}
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
