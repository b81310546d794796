"""The README's documented library API runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start") :]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README.name}: Library quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 3  # one clearing and its check, then one line per u
    assert lines[1].startswith("ViabilityCheck(holds=True,")
