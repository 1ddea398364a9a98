"""The README's library tour must run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text.split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README.md library tour", "exec"), {})
    printed = capsys.readouterr().out.split("\n")
    assert len([line for line in printed if line]) == 3
