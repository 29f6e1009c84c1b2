"""The public API: every exported name exists, README names it, every
name README gives the code exists, and the README's library quickstart
runs."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
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


def test_import_leaves_the_slow_modules_unloaded():
    # scipy.spatial alone costs about 0.1 s of import time; the k-d tree,
    # the file formats and the CLI are loaded where they are used.
    src = Path(reslearn.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", "import sys, reslearn; print(*sys.modules)"],
        cwd=src, capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert "reslearn" in loaded
    assert loaded.isdisjoint({"scipy.spatial", "scipy.io", "reslearn.io",
                              "reslearn.cli"})


def test_readme_names_every_exported_name():
    text = README.read_text(encoding="utf-8")
    unnamed = [name for name in reslearn.__all__
               if not re.search(rf"\b{name}\b", text)]
    assert unnamed == []


def test_every_exported_name_has_a_docstring():
    # The docstring holds each contract; README only points to it.  A
    # dataclass without one gets its signature, which is no docstring.
    docs = {name: (getattr(reslearn, name).__doc__ or "").strip()
            for name in reslearn.__all__}
    assert [name for name, doc in docs.items()
            if not doc or doc.startswith(f"{name}(")] == []


def test_readme_names_no_private_name():
    # A private name is the code's business, and its contract lives in a
    # docstring; naming one in README makes a second copy to keep in step.
    text = README.read_text(encoding="utf-8")
    private = [name for span in re.findall(r"`([^`\n]+)`", text)
               for name in re.findall(r"(?<!\w)_\w+", span)]
    assert private == []


def test_readme_names_only_what_the_code_has():
    # A lowercase backticked identifier with an underscore, `name` or
    # `name(...)`, is a module attribute, an attribute or field of an
    # exported class, or a parameter of an exported function; a README
    # that still names deleted API fails here.
    text = README.read_text(encoding="utf-8")
    named = {name for name in re.findall(r"`([a-z_][a-z0-9_]*)[`(]", text)
             if "_" in name}
    modules = [reslearn] + [importlib.import_module(f"reslearn.{m.name}")
                            for m in pkgutil.iter_modules(reslearn.__path__)]
    exported = [getattr(reslearn, name) for name in reslearn.__all__]
    known = set().union(*map(dir, modules))
    for obj in exported:
        if isinstance(obj, type):
            known |= set(dir(obj))
            if dataclasses.is_dataclass(obj):
                known |= {f.name for f in dataclasses.fields(obj)}
        elif inspect.isfunction(obj):
            known |= set(inspect.signature(obj).parameters)
    assert sorted(named - known) == []


def test_readme_quickstart_runs():
    # The first python block under the "Library quickstart" heading; a
    # public name it uses that is renamed or deleted fails here.
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under Library quickstart"
    exec(compile(block.group(1), f"{README}:quickstart", "exec"), {})
