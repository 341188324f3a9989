"""Every demo prints something, and the README quickstart prints what it says."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_quickstart_prints_what_its_comments_say(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"\n## Library quickstart\n\n```python\n(.*?)```", readme, re.S)
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == ["True", "True 8"]
