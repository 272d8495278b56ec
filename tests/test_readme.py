"""The README's library example runs as written, so a removed name cannot leave it stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md library example", "exec"), {"__name__": "readme_example"})
    assert len(capsys.readouterr().out.splitlines()) == 4
