"""Every demo script, and the README's library block, runs to completion
against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mhcvse.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    section = (ROOT / "README.md").read_text().split("## Library in five lines", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "model_for(cfg, train)" in block
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "data"]) == 0
    capsys.readouterr()
    exec(block, {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
