"""The README's library quick start runs as printed and gives the values its comments state."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_and_matches_its_comments():
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, f"{README}:quick start", "exec"), namespace)
    # at the precision the comments print
    assert round((namespace["site"][0] - namespace["fiber"].radius) * 1e9, 2) == 232.96
    assert [round(f / 1e3, 1) for f in namespace["nu"]] == [115.7, 88.1, 188.7]
    assert round(abs(namespace["eps"][1]), 2) == 0.84
