"""Every public name of the package, and every module-level function or
class of its modules and every method of those classes, is reached by a
command, a check or another library function, not only by its own tests.

The modules of ``src/fishburn`` (the package's ``__init__`` aside) and the
scripts are parsed with ``ast``; a name counts as reached when it is
loaded, as a bare name or as a module attribute, outside its own definition
and outside type annotations.  A method counts as reached only when it is
loaded as an attribute (``x.name``), so a local variable or parameter of the
same name does not hide it.
"""

import ast
from pathlib import Path

import fishburn

ROOT = Path(__file__).resolve().parents[1]

# Public names with no caller by design, each with its reason.
NO_CALLER = set()

# Module-level functions and classes with no loader by design, as
# (module, name), each with its reason.
NO_LOADER = {
    # The tests' reference product of v-polynomial rows; perfbench's tracer
    # wraps it by name.
    ("series", "_bv_mul_into"),
    # The scalar reference the tests check the vectorised _sweep against;
    # perfbench's tracer wraps it by name.
    ("saddle", "_phi_terms"),
    # The Euler-Maclaurin closed form the tests check log_product against.
    ("saddle", "em_log_product"),
    # Fishburn numbers from ascent sequences, with no generating function:
    # independent evidence for the series.
    ("oracle", "ascent_counts"),
}

# Methods with no loader by design, as (module, class, method), each with its
# reason.
NO_METHOD_LOADER = {
    # The tests' reference for the general <-> primitive duality (TestDuality);
    # compose is reached through it.
    ("series", "TruncatedSeries", "substitute_mobius"),
}


def _modules():
    return [p for p in sorted((ROOT / "src" / "fishburn").glob("*.py"))
            if p.name != "__init__.py"]


def _sources():
    return _modules() + sorted((ROOT / "scripts").glob("*.py"))


class _Loads(ast.NodeVisitor):
    """Names loaded outside the definition that binds them and outside
    annotations."""

    def __init__(self):
        self.names = set()
        self.attributes = set()
        self._inside = []

    def _definition(self, node):
        self._inside.append(node.name)
        for child in node.decorator_list:
            self.visit(child)
        if isinstance(node, ast.ClassDef):
            for child in node.bases + node.keywords:
                self.visit(child)
        else:
            self._arguments(node.args)
        for child in node.body:
            self.visit(child)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _arguments(self, args):
        for default in args.defaults + [d for d in args.kw_defaults if d is not None]:
            self.visit(default)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)

    def _load(self, name):
        if name not in self._inside:
            self.names.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._load(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and node.attr not in self._inside:
            self.names.add(node.attr)
            self.attributes.add(node.attr)
        self.visit(node.value)


def _loads():
    loads = _Loads()
    for path in _sources():
        loads.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    return loads


def _loaded_names():
    return _loads().names


def test_every_public_name_has_a_caller():
    unreached = sorted(set(fishburn.__all__) - _loaded_names() - NO_CALLER)
    assert unreached == [], f"public names reached only by tests: {unreached}"


def _definitions():
    """(module, name) of every module-level function and class."""
    return {(path.stem, node.name)
            for path in _modules()
            for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def _methods():
    """(module, class, name) of every method of a module-level class but the
    dunder methods."""
    return {(path.stem, node.name, item.name)
            for path in _modules()
            for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))}


def test_every_module_level_definition_has_a_loader():
    loaded = _loaded_names()
    unreached = sorted(d for d in _definitions() - NO_LOADER if d[1] not in loaded)
    assert unreached == [], f"definitions loaded only by tests: {unreached}"


def test_exceptions_are_public_and_unreached():
    assert NO_CALLER <= set(fishburn.__all__)
    assert not NO_CALLER & _loaded_names()


def test_definition_exceptions_exist_and_are_unreached():
    assert NO_LOADER <= _definitions()
    assert not {name for _, name in NO_LOADER} & _loaded_names()


def test_every_method_has_a_loader():
    loaded = _loads().attributes
    unreached = sorted(m for m in _methods() - NO_METHOD_LOADER if m[2] not in loaded)
    assert unreached == [], f"methods loaded only by tests: {unreached}"


def test_method_exceptions_exist_and_are_unreached():
    assert NO_METHOD_LOADER <= _methods()
    assert not {name for *_, name in NO_METHOD_LOADER} & _loads().attributes
