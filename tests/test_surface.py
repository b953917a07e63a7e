"""Every def in the library is reached from the library, or is listed here
with the reason it stays.

The scanner lists each module-level function and class and each
non-dunder method of a module-level class in ``src/ftk`` whose name no
library module other than ``__init__.py`` references, as a name, an
attribute or an imported name.  ``ftk/__init__.py`` re-exports the public
surface, so an import there does not count as a use.  Each def the scan
finds must be in ``ALLOWED`` with its reason: public API, benchmark-named
(a span of ``benchmark/spans.py``) or test oracle.  An unlisted def fails,
and so does an entry the library has come to reference.

Names are matched bare, so a def whose name is also a variable or an
attribute elsewhere (``x``, ``order``, ``mul``) counts as referenced: the
scan is a tripwire for code that only tests call, not a proof that every
other def is reached.
"""

import ast
from pathlib import Path

import ftk

ALLOWED = {
    "artin_schreier.as_moduli_point": "public API: the README's moduli points",
    "artin_schreier.elemab_canonicalize": "benchmark-named: span artin_schreier.elemab_canonicalize",
    "artin_schreier.elemab_enumerate": "benchmark-named: span artin_schreier.elemab_enumerate",
    "fields.FieldSpec.gen": "public API: the generator g of the series grammar",
    "parse.parse_field_elem": "benchmark-named: span parse.parse_field_elem",
    "parallel.parallel_map": "benchmark-named: span parallel.parallel_map (the census no longer calls it)",
    "semidirect.GTorsorClass.class_id": "public API: the id of an enumerate_g_torsors class, as the census prints it",
    "semidirect.g_torsor_class_count": "public API: the closed-form size of the semidirect census",
    "semidirect.zphi_solve": "benchmark-named: span semidirect.zphi_solve",
    "series.LaurentSeries.split_parts": "benchmark-named: span series.split_parts",
    "oracles.as_window_witness_exists": "test oracle: the AS witness by window search",
    "oracles.kummer_window_witness_exists": "test oracle: the Kummer witness by window search",
    "oracles._WindowCodec.encode": "test oracle: the tests' adapter from series to window codes",
    "oracles._WindowCodec.decode": "test oracle: the tests' adapter from window codes to series",
}


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _defs(tree):
    """(qualified name, bare name) of the module-level defs and of the
    non-dunder methods of module-level classes."""
    for node in tree.body:
        if not _is_def(node):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if _is_def(item) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname})
    return names


def unreferenced(sources: dict) -> list:
    """The defs of {module name: source text} whose name no module except
    ``__init__`` references, as sorted "module.qualified_name" strings."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set().union(*(_references(tree) for name, tree in trees.items() if name != "__init__"))
    return sorted(
        f"{name}.{qualified}" for name, tree in trees.items() for qualified, bare in _defs(tree) if bare not in used
    )


def _library_sources() -> dict:
    return {path.stem: path.read_text(encoding="utf-8") for path in Path(ftk.__file__).parent.glob("*.py")}


def test_every_unreferenced_def_has_a_stated_reason():
    found = unreferenced(_library_sources())
    unlisted = [d for d in found if d not in ALLOWED]
    assert unlisted == [], f"no library module uses {unlisted}: delete them, or list them with a reason"
    stale = [d for d in ALLOWED if d not in found]
    assert stale == [], f"the library now uses {stale}: take them off the list"


def test_the_scanner_finds_a_def_only_init_imports():
    sources = {
        "__init__": "from .m import unused\n",
        "m": "def used():\n    return 1\n\n\ndef unused():\n    return used()\n",
    }
    assert unreferenced(sources) == ["m.unused"]


def test_a_library_reference_takes_a_def_off_the_list():
    sources = _library_sources()
    sources["cli"] += "\nas_moduli_point\n"
    assert "artin_schreier.as_moduli_point" not in unreferenced(sources)
