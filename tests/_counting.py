"""Call counting for tests that check a quantity is computed once."""

import sys


def count_calls(monkeypatch, module, name):
    """Wrap `module.name` with a counter in every aurifeuille module that
    binds it; returns the list of argument tuples, one per call."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "aurifeuille" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls
