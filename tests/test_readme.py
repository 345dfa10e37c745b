"""The README's Python API sketch runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_sketch_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert blocks, "README has no python block"
    exec(compile(blocks[0], f"{README.name} python block", "exec"), {"__name__": "readme"})
