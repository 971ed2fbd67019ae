"""Every path a CI step names exists in the repo.

CI runs only after a push, so a step that still names a deleted
script, test file or module would fail only then.  These tests read
the ``run:`` steps of ``.github/workflows/ci.yml`` and resolve each
``*.py`` / ``*.json`` path with a directory part, and each
``python -m`` module under ``tools`` or ``repro``.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PATH = re.compile(r"(?<![\w./$-])((?:[\w.-]+/)+[\w.-]+\.(?:py|json))\b")
MODULE = re.compile(r"-m\s+((?:tools|repro)(?:\.\w+)*)")


def run_steps(text):
    """Each ``run:`` value: the rest of its line plus every following
    line indented deeper than the key (``|`` blocks and folded plain
    scalars alike)."""
    steps = []
    lines = text.splitlines()
    for index, line in enumerate(lines):
        match = re.match(r"(\s*)(?:- )?run:\s*(.*)$", line)
        if match is None:
            continue
        body = [match.group(2)]
        for following in lines[index + 1:]:
            indent = len(following) - len(following.lstrip())
            if following.strip() and indent <= len(match.group(1)):
                break
            body.append(following)
        steps.append("\n".join(body))
    return steps


@pytest.fixture(scope="module")
def steps():
    workflow = ROOT / ".github" / "workflows" / "ci.yml"
    return run_steps(workflow.read_text(encoding="utf-8"))


def test_every_named_path_exists(steps):
    named = {path for step in steps for path in PATH.findall(step)}
    # the reader found the steps: an empty set would pass vacuously
    assert len(steps) > 30
    assert {"perfbench/ab.py", "tests/test_checkpoint.py"} <= named
    assert sorted(path for path in named if not (ROOT / path).is_file()) == []


def test_every_python_dash_m_module_resolves(steps):
    modules = {module for step in steps for module in MODULE.findall(step)}
    assert "tools.lint" in modules

    def resolves(module):
        target = (ROOT if module.startswith("tools") else ROOT / "src").joinpath(
            *module.split(".")
        )
        return target.with_suffix(".py").is_file() or (target / "__init__.py").is_file()

    assert sorted(module for module in modules if not resolves(module)) == []
