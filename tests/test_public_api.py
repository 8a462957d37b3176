"""The package's public names: every `__all__` entry exists, and the top level re-exports only them."""

import ast
import importlib
from pathlib import Path

import mppstat

INIT = Path(mppstat.__file__)
MODULES = ("core", "markfn", "sim", "est", "weights", "infer", "oracle", "cli")


def test_all_names_exist_and_top_level_imports_are_public():
    for name in MODULES:
        module = importlib.import_module(f"mppstat.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (name, missing)
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        public = importlib.import_module(f"mppstat.{node.module}").__all__
        private = [a.name for a in node.names if a.name not in public]
        assert not private, (node.module, private)
