"""Source-level contracts.

No library contract may live in an ``assert``: ``python -O`` strips them.
Experiment options are read only through ``experiments._SCHEMAS``, so the
decision of what an option means and defaults to stays in one table.  No
library module reads ``ExpandedCore.path_edge_ids``: chains are read from
the one flat table (``edge_ids``, ``chains``), so the per-path list form
stays a derived view for outside readers.  Only ``graph.py`` touches the
invariants a ``SparseGraph`` caches, and ``__init__`` fills none of them,
so no cache is read before it is filled or paid for by a caller that never
needs it.  A ``Tournament`` is its vertex count and its two sorted
backedge arrays, with no cached Python set beside them: every backedge
test in the library searches those arrays.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cutlab"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_per_path_edge_id_list(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "path_edge_ids"]
    assert not lines, f"{path.name}: .path_edge_ids on lines {lines}"


CACHE_SLOTS = ("_view", "_labels", "_coloring", "_odd_girth")


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "graph.py"),
                         ids=lambda p: p.name)
def test_only_graph_module_touches_the_cache_slots(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in CACHE_SLOTS]
    assert not lines, f"{path.name}: a SparseGraph cache slot on lines {lines}"


def _written_slots(node) -> list:
    """The cache slots an assignment statement writes."""
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return [t.attr for target in targets if target is not None
            for t in ast.walk(target)
            if isinstance(t, ast.Attribute) and t.attr in CACHE_SLOTS]


def _is_empty_marker(value) -> bool:
    """None, or ``_UNKNOWN`` for the odd girth, whose value may be None."""
    return (isinstance(value, ast.Constant) and value.value is None
            or isinstance(value, ast.Name) and value.id == "_UNKNOWN")


def test_sparse_graph_init_fills_no_cache_slot():
    path = SRC / "graph.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "SparseGraph")
    init = next(node for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    emptied, filled = set(), []
    for node in ast.walk(init):
        slots = _written_slots(node)
        if slots and isinstance(node, ast.Assign) and _is_empty_marker(node.value):
            emptied.update(slots)
        elif slots:
            filled.append(node.lineno)
    assert not filled, f"SparseGraph.__init__ fills a cache slot on lines {filled}"
    assert emptied == set(CACHE_SLOTS), "every cache slot starts empty"


def _declared_option_keys() -> set:
    """Every option key of every schema in ``experiments._SCHEMAS``."""
    from cutlab.experiments import _SCHEMAS
    return {key for schema in _SCHEMAS.values() for key in schema.options}


def _is_options(node) -> bool:
    """``opts``, ``options`` or ``x.options``: an options dict."""
    if isinstance(node, ast.Name):
        return node.id in ("opts", "options")
    return isinstance(node, ast.Attribute) and node.attr == "options"


def test_experiment_options_are_read_through_the_table():
    path = SRC / "experiments.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    declared = _declared_option_keys()
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and _is_options(node.func.value)):
            lines.append(node.lineno)  # a default decided outside the table
        elif isinstance(node, ast.Subscript) and _is_options(node.value):
            key = node.slice
            if not (isinstance(key, ast.Constant) and key.value in declared):
                lines.append(node.lineno)  # a key the table does not declare
    assert not lines, f"options read outside _SCHEMAS on lines {lines}"


def test_tournament_slots_are_its_backedge_arrays():
    from cutlab.tournament import Tournament
    assert Tournament.__slots__ == ("n", "bu", "bv")
