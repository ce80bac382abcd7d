"""Layout rules, read off each module's source, parsed once: no module imports
another package module's private names, a package module above it (``ALLOWED``)
or ``fractions``; each ``__all__`` name is defined and exported by the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cuspzeta"
TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
MODULES = {path.stem for path in TREES}
# the oracles never see the engine, and the pole layer sees exact alone
ALLOWED = {"exact": set(), "graphs": set(), "families": {"graphs"}, "oracle": {"graphs"},
           "zeta": {"exact", "graphs"}, "spectra": {"exact"}, "cli": MODULES, "__init__": MODULES}


def import_faults():
    """"file:line: rule: detail" per broken rule; "from . import exact" is cuspzeta.exact."""
    for path, tree in TREES.items():
        for node in (n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))):
            if isinstance(node, ast.Import):
                names = [(alias.name.split("."), "") for alias in node.names]
            else:
                base = ("cuspzeta." * bool(node.level) + (node.module or "")).strip(".").split(".")
                names = [(base + [a.name] if len(base) == 1 else base, a.name) for a in node.names]
            for parts, name in names:
                # "from cuspzeta import Poly" reads the package, so __init__
                target = next((part for part in parts[1:2] if part in MODULES), "__init__")
                if parts[0] == "fractions":
                    yield f"{path}:{node.lineno}: fractions: {path.stem} imports fractions"
                if parts[0] == "cuspzeta" and name.startswith("_"):
                    yield f"{path}:{node.lineno}: private: {path.stem} imports {name}"
                if parts[0] == "cuspzeta" and target not in ALLOWED.get(path.stem, set()):
                    yield f"{path}:{node.lineno}: layering: {path.stem} imports cuspzeta.{target}"


@pytest.mark.parametrize("rule", ["private", "layering", "fractions"])
def test_imports_keep_the_rule(rule):
    bad = [fault for fault in import_faults() if fault.split(": ")[1] == rule]
    assert not bad, "\n".join(bad)


def test_every_exported_name_is_defined_and_exported():
    # a library module's undefined name already fails this import, in its star import
    package, bad = importlib.import_module("cuspzeta"), []
    for path, tree in TREES.items():
        module = importlib.import_module(f"cuspzeta.{path.stem}".removesuffix(".__init__"))
        line = next((node.lineno for node in tree.body if isinstance(node, ast.Assign)
                     and any(getattr(t, "id", None) == "__all__" for t in node.targets)), 1)
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                bad.append(f"{path}:{line}: exports: __all__ names {name}, which is undefined")
            elif path.stem != "cli" and getattr(package, name, None) is not getattr(module, name):
                bad.append(f"{path}:{line}: exports: cuspzeta does not export {path.stem}.{name}")
    assert not bad, "\n".join(bad)
