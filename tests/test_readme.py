"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    exec(compile(block, str(README), "exec"), {})
    # the spin-flip defect at k*r = 2 sends 1/4 into every channel, as its comment says
    assert "[0.25 0.25 0.25 0.25]" in capsys.readouterr().out
