"""The public surface: every exported name exists."""

import importlib
import pkgutil

import roughsew


def test_every_all_entry_resolves():
    names = [m.name for m in pkgutil.iter_modules(roughsew.__path__, "roughsew.")]
    assert "roughsew.rsde" in names and "roughsew.sewing" in names
    missing = {}
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        assert len(set(exported)) == len(exported), name
        missing[name] = [attr for attr in exported if not hasattr(module, attr)]
    assert not any(missing.values()), missing
