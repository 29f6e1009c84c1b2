"""The public API: every exported name exists, README names it, and the
README's library quickstart runs."""

import re
from pathlib import Path

import reslearn

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in reslearn.__all__
               if not hasattr(reslearn, name)]
    assert missing == []
    assert len(set(reslearn.__all__)) == len(reslearn.__all__)


def test_star_import():
    namespace = {}
    exec("from reslearn import *", namespace)
    assert set(reslearn.__all__) <= namespace.keys()


def test_readme_names_every_exported_name():
    text = README.read_text(encoding="utf-8")
    unnamed = [name for name in reslearn.__all__
               if not re.search(rf"\b{name}\b", text)]
    assert unnamed == []


def test_readme_quickstart_runs():
    # The first python block under the "Library quickstart" heading; a
    # public name it uses that is renamed or deleted fails here.
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under Library quickstart"
    exec(compile(block.group(1), f"{README}:quickstart", "exec"), {})
