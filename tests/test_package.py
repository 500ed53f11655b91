"""The package's lazy exports (PEP 562): heckeslopes.<name> loads <name> from
the module that _EXPORTS files it under; and which modules may use
fractions."""

import ast
from importlib import import_module
from pathlib import Path

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


def test_fractions_only_where_slopes_are_rational():
    # everything below the Newton polygon is integer; only the slope layer
    # and the reports that print slopes hold Fractions
    users = set()
    for path in Path(heckeslopes.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "fractions" in names:
                users.add(path.stem)
    assert users == {"exact", "slopes", "survey"}
