"""The README's library example runs, and every exported name resolves."""

import re
from pathlib import Path

import relialloc

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's Library example has no python block"
    return match.group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2


def test_every_exported_name_resolves():
    missing = [name for name in relialloc.__all__ if not hasattr(relialloc, name)]
    assert not missing
    assert len(set(relialloc.__all__)) == len(relialloc.__all__)
