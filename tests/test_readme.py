"""The README's library example runs against the package as it stands."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_readme_library_example_runs():
    example = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    exec(compile(example, "README.md", "exec"), {"__name__": "readme_example"})
