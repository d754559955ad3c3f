"""The README's library quick start runs against the package namespace."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    params = scope["params"]
    assert scope["data"].residual < 1e-9
    closed = np.prod([(1 + abs(v) ** 2) ** -n for n, v in zip(params.indices, params.values)])
    assert abs(scope["det"] - closed) < 1e-12
