"""The package's lazy exports (PEP 562): heckeslopes.<name> loads <name> from
the module that _EXPORTS files it under."""

from importlib import import_module

import heckeslopes


def test_every_export_resolves_to_a_public_name_of_its_module():
    for module, names in heckeslopes._EXPORTS.items():
        mod = import_module("heckeslopes." + module)
        for name in names:
            assert name in mod.__all__, (module, name)
            assert getattr(heckeslopes, name) is getattr(mod, name), (module, name)
            assert name in heckeslopes.__all__, (module, name)
    # the grouped trace route that crosscheck uses
    assert heckeslopes.charpolys_from_traces.__module__ == "heckeslopes.traceforms"
