"""The public API: every exported name exists."""

import reslearn


def test_every_exported_name_resolves():
    missing = [name for name in reslearn.__all__
               if not hasattr(reslearn, name)]
    assert missing == []
    assert len(set(reslearn.__all__)) == len(reslearn.__all__)


def test_star_import():
    namespace = {}
    exec("from reslearn import *", namespace)
    assert set(reslearn.__all__) <= namespace.keys()
