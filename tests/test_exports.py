"""Every name apvar exports has a caller in the library or the CLI: tests
do not count.  The allowlist holds the exports still waiting on their
callers; each must stay exported and uncalled, so the list only shrinks."""

import ast
from pathlib import Path

import apvar

SRC = Path(apvar.__file__).resolve().parent

ALLOWED = {
    "d_k_of": "perfbench calls or wraps it; ROADMAP item 3 (b)",
    "square_sum": "perfbench calls or wraps it; ROADMAP item 3 (b)",
    "dissection": "perfbench calls or wraps it; ROADMAP item 3 (b)",
    "verify_containment": "perfbench calls or wraps it; ROADMAP item 3 (b)",
    "local_correction_series": "perfbench calls or wraps it; ROADMAP item 3 (b)",
    "deviation_decay_slope": "criterion 08; ROADMAP item 5",
}


def _exports() -> set[str]:
    """The public names __init__.py imports from apvar's own modules."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if not alias.name.startswith("_")
    }


def _loaded_names() -> set[str]:
    """Every Name and Attribute name loaded by the modules but __init__.py."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    exports, loaded = _exports(), _loaded_names()
    assert exports, "no exports found"
    uncalled = exports - loaded - ALLOWED.keys()
    assert not uncalled, f"exported, but nothing in the library or CLI calls: {sorted(uncalled)}"


def test_allowlist_holds_only_uncalled_exports():
    exports, loaded = _exports(), _loaded_names()
    assert not ALLOWED.keys() - exports, "allowlisted but no longer exported"
    assert not ALLOWED.keys() & loaded, "allowlisted but now called: drop it from ALLOWED"
