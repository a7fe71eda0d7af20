"""README.md's Library example runs as written, from the repository root."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs(monkeypatch):
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Library"):]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(example, "<README.md Library example>", "exec"), {})
