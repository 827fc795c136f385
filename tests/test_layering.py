"""Layering guard: the dense oracles stay in the harness, off the hot path.

Library modules other than ``harness``, ``cli`` and ``__init__`` may not
import the harness, and no module but the harness may define or import a
signed-permutation class: the library's gamma words are mask triples.  The
word-reduction definition of the product sign (``normalize_product`` with
its ``_SITE_TABLE``, ``index_of_word``, ``h_signature``, ``g_signature``)
and ``sparse_trace`` are oracles too, defined and imported only there: the
library computes the sign in closed form.  So is the rank oracle
(``certified_rank`` and its ``_forward_rank``), and the harness ranks a
``Matrix`` only in the check that tests ``linalg`` itself.  No
library module keeps a ``functools`` memo table (``cache``/``lru_cache``):
derived data comes from closed forms or lives on its ``Algebra`` context.
An element stores integer numerators, and its ``terms`` attribute builds a
field-value view per read; so do the gamma and Witt expansions, with their
``coefficients`` view, Witt vectors, with ``alpha``, ``beta`` and
``coords()``, and spinors, with ``xi`` and ``coords()``.  Only the output
codecs (``serialize``), the harness and ``__repr__`` methods read those
views.  The stored form's lowest-terms reduction is written once, as
``scalars.lowest_terms``: no other function computes a ``gcd`` but the
elimination's row content (``linalg._content``), no ``from_numerators``
divides its numerators itself, no class defines a ``_reduced``, and the
subclasses of ``algebra.StoredForm`` inherit its shared methods instead of
restating them.  No class but ``StoredForm`` declares both ``nums`` and
``den`` slots: every stored object, the expansions and the Witt vectors
included, is a ``StoredForm``.  The dense ``linalg.Matrix`` keeps only its
eliminations: it defines no entrywise arithmetic (sums, products,
negation, transpose, ``apply``).
"""

import ast
import os
import re

import cliffordefb
from cliffordefb.algebra import StoredForm
from cliffordefb.linalg import Matrix
from cliffordefb.vectors import WittVector

PACKAGE_DIR = os.path.dirname(cliffordefb.__file__)
MAY_IMPORT_HARNESS = {"harness", "cli", "__init__"}
SIGNED_PERM_NAME = re.compile(r"signed_?perm", re.IGNORECASE)
MEMO_DECORATORS = {"cache", "lru_cache"}
MAY_READ_VIEWS = {"serialize", "harness"}
VIEWS = ("terms", "coefficients", "xi", "alpha", "beta", "coords")
# (module, function) of every gcd call: the stored form's one reduction and
# the elimination's row content
MAY_CALL_GCD = {("scalars", "lowest_terms"), ("linalg", "_content")}
# the oracles that only the harness defines or imports
ORACLE_NAMES = {
    "normalize_product", "_SITE_TABLE", "index_of_word", "h_signature", "g_signature",
    "sparse_trace", "certified_rank", "_forward_rank",
}
# the classes that declare their own stored form (nums over den)
MAY_STORE_NUMS = {"StoredForm"}
SHARED_METHODS = {
    "__init__", "from_numerators", "_view", "__bool__", "is_zero", "__eq__", "__hash__",
    "__add__", "__sub__", "__neg__", "scale",
}
# the entrywise arithmetic that ``linalg.Matrix`` does not define
ENTRYWISE = {"__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "transpose", "apply"}


def modules():
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name), encoding="utf-8") as handle:
                yield name[:-3], ast.parse(handle.read(), name)


def imported(tree):
    """(module, name) per imported name; module is dotted, relative as '.x'."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                yield module, alias.name


def imports_harness(module: str, name: str | None) -> bool:
    return "harness" in module.split(".") + [name]


def declared_slots(node: ast.ClassDef) -> set:
    slots = set()
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
        ) and isinstance(stmt.value, (ast.Tuple, ast.List)):
            slots |= {e.value for e in stmt.value.elts if isinstance(e, ast.Constant)}
    return slots


def is_signed_perm_class(node) -> bool:
    if not isinstance(node, ast.ClassDef):
        return False
    if SIGNED_PERM_NAME.search(node.name):
        return True
    return {"perm", "signs"} <= declared_slots(node)


def stored_form_copies(tree):
    """Names of the classes that declare both ``nums`` and ``den`` slots."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and {"nums", "den"} <= declared_slots(node)
    ]


def oracle_names(tree):
    """The oracle names a module defines (a function, a class or an assigned
    name) or imports."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        yield from (name for name in names if name in ORACLE_NAMES)
    yield from (name for _module, name in imported(tree) if name in ORACLE_NAMES)


def memo_uses(tree):
    """The functools memo decorators a module imports, reaches as
    ``functools.<name>`` or decorates a function with."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from (alias.name for alias in node.names if alias.name in MEMO_DECORATORS)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in MEMO_DECORATORS
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if isinstance(target, ast.Name) and target.id in MEMO_DECORATORS:
                    yield target.id


def view_reads(tree, view: str):
    """Line numbers of every ``<expr>.<view>`` attribute access outside a
    ``__repr__`` method."""
    in_repr = {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef) and function.name == "__repr__"
        for node in ast.walk(function)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == view and id(node) not in in_repr
    )


def gcd_callers(tree):
    """The innermost enclosing function name (None at module level) of every
    call to ``gcd`` or ``<module>.gcd``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                callee = child.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                if name == "gcd":
                    found.append(function)
            visit(child, function)

    visit(tree, None)
    return found


def restated_reductions(tree):
    """Names of the definitions that restate the lowest-terms reduction: a
    ``_reduced`` anywhere, a ``from_numerators`` that floor-divides, and a
    method of ``StoredForm``'s that a subclass of it defines again."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_reduced":
            found.append(node.name)
        elif isinstance(node, ast.FunctionDef) and node.name == "from_numerators":
            if any(isinstance(op, ast.FloorDiv) for op in ast.walk(node)):
                found.append(node.name)
        elif isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id == "StoredForm" for base in node.bases
        ):
            found += [
                f"{node.name}.{stmt.name}"
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name in SHARED_METHODS
            ]
    return found


def entrywise_methods(tree):
    """The entrywise-arithmetic methods that a class named ``Matrix``
    defines."""
    return sorted(
        stmt.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "Matrix"
        for stmt in node.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name in ENTRYWISE
    )


def test_guard_sees_the_package():
    names = {name for name, _tree in modules()}
    assert {"harness", "matrixrep", "bilinear", "cli", "__init__"} <= names


def test_only_the_harness_cli_and_package_import_the_harness():
    offenders = [
        (name, module, imported_name)
        for name, tree in modules()
        if name not in MAY_IMPORT_HARNESS
        for module, imported_name in imported(tree)
        if imports_harness(module, imported_name)
    ]
    assert offenders == []


def test_signed_permutations_live_only_in_the_harness():
    offenders = []
    for name, tree in modules():
        if name == "harness":
            assert any(is_signed_perm_class(node) for node in ast.walk(tree))
            continue
        offenders += [(name, node.name) for node in ast.walk(tree) if is_signed_perm_class(node)]
        offenders += [
            (name, imported_name)
            for _module, imported_name in imported(tree)
            if imported_name and SIGNED_PERM_NAME.search(imported_name)
        ]
    assert offenders == []


def test_the_word_reduction_oracles_live_only_in_the_harness():
    trees = dict(modules())
    assert set(oracle_names(trees["harness"])) == ORACLE_NAMES
    offenders = [
        (name, found)
        for name, tree in trees.items()
        if name != "harness"
        for found in oracle_names(tree)
    ]
    assert offenders == []


def test_no_library_module_keeps_a_memo_table():
    offenders = [(name, use) for name, tree in modules() for use in memo_uses(tree)]
    assert offenders == []


def test_only_serialize_and_the_harness_read_the_terms_view():
    """The elements' ``terms``, the expansions' ``coefficients``, the
    vectors' ``alpha``, ``beta`` and ``coords()`` and the spinors' ``xi`` and
    ``coords()`` alike; a ``__repr__`` may read them too."""
    offenders = [
        (name, view, line)
        for name, tree in modules()
        if name not in MAY_READ_VIEWS
        for view in VIEWS
        for line in view_reads(tree, view)
    ]
    assert offenders == []


def test_the_lowest_terms_reduction_is_written_once():
    trees = dict(modules())
    assert ("scalars", "lowest_terms") in {
        ("scalars", caller) for caller in gcd_callers(trees["scalars"])
    }
    assert any(
        isinstance(node, ast.ClassDef) and node.name == "StoredForm"
        for node in ast.walk(trees["algebra"])
    )
    offenders = [
        (name, caller)
        for name, tree in trees.items()
        for caller in gcd_callers(tree)
        if (name, caller) not in MAY_CALL_GCD
    ]
    offenders += [
        (name, found) for name, tree in trees.items() for found in restated_reductions(tree)
    ]
    assert offenders == []


def test_only_the_stored_form_declares_numerators():
    found = {(name, cls) for name, tree in modules() for cls in stored_form_copies(tree)}
    assert ("algebra", "StoredForm") in found
    assert ("vectors", "WittVector") not in found
    assert issubclass(WittVector, StoredForm)
    assert [(name, cls) for name, cls in found if cls not in MAY_STORE_NUMS] == []


def test_the_dense_matrix_defines_no_entrywise_arithmetic():
    linalg = dict(modules())["linalg"]
    assert any(isinstance(node, ast.ClassDef) and node.name == "Matrix" for node in ast.walk(linalg))
    assert entrywise_methods(linalg) == []
    assert [name for name in sorted(ENTRYWISE) if hasattr(Matrix, name)] == []


def test_the_harness_ranks_a_matrix_only_where_it_tests_linalg():
    """Its other rank claims go through its own oracle, ``certified_rank``."""
    harness = dict(modules())["harness"]
    callers = {
        func.name
        for func in harness.body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "rank"
    }
    assert callers == {"check_linalg_kernel_rank_det"}


def test_guard_catches_violations():
    bad_import = ast.parse(
        "from . import harness\nfrom .harness import run_suite\nimport cliffordefb.harness\n"
    )
    assert [imports_harness(m, n) for m, n in imported(bad_import)] == [True, True, True]
    fine = ast.parse("from .bilinear import rep_context\nimport json\n")
    assert not any(imports_harness(m, n) for m, n in imported(fine))
    classes = ast.parse(
        "class SignedPerm: pass\n"
        "class Dense:\n    __slots__ = ('perm', 'signs')\n"
        "class GammaWord:\n    __slots__ = ('f', 'sigma', 'eps')\n"
    )
    assert [is_signed_perm_class(n) for n in classes.body] == [True, True, False]
    copies = ast.parse(
        "class _Expansion:\n    __slots__ = ('m', 'nums', 'den')\n"
        "class Spinor(StoredForm):\n    __slots__ = ()\n"
        "class Row:\n    __slots__ = ['nums']\n"
    )
    assert stored_form_copies(copies) == ["_Expansion"]
    oracles = ast.parse(
        "from .algebra import normalize_product, word_of_index\n"
        "def sparse_trace(x, zero): return zero\n"
        "_SITE_TABLE = [[None] * 4 for _ in range(4)]\n"
        "pair = index_of_word(word)\n"
    )
    assert sorted(oracle_names(oracles)) == ["_SITE_TABLE", "normalize_product", "sparse_trace"]
    memos = ast.parse(
        "from functools import cache, reduce\n"
        "import functools\n"
        "@functools.lru_cache(maxsize=None)\ndef f(m): pass\n"
        "@cache\ndef g(m): pass\n"
        "@lru_cache\ndef h(m): pass\n"
        "table = functools.cache(len)\n"
    )
    assert sorted(memo_uses(memos)) == ["cache", "cache", "cache", "lru_cache", "lru_cache"]
    assert list(memo_uses(ast.parse("from functools import reduce\n@property\ndef f(x): pass\n"))) == []
    views = ast.parse(
        "for key, c in x.terms.items(): pass\n"
        "n = len(y.terms)\n"
        "first = f(z).terms[(0, 0)]\n"
        "x.terms = {}\n"
    )
    assert view_reads(views, "terms") == [1, 2, 3, 4]
    assert view_reads(views, "coefficients") == []
    fine = ast.parse(
        "for key, n in x.nums.items(): pass\n"
        "terms = {}\n"
        "data.get('terms')\n"
        "class E:\n    @property\n    def terms(self): return {}\n"
    )
    assert view_reads(fine, "terms") == []
    views = ast.parse(
        "for word, c in expand_witt(mu).coefficients.items(): pass\n"
        "n = len(e.coefficients)\n"
        "first = e.coefficients[()]\n"
        "words = list(x.terms)\n"
        "e.coefficients = {}\n"
    )
    assert view_reads(views, "coefficients") == [1, 2, 3, 5]
    fine = ast.parse(
        "for word, n in expand_witt(mu).nums.items(): pass\n"
        "coefficients = {}\n"
        "data.get('coefficients')\n"
        "def f(m, coefficients): return coefficients.items()\n"
        "class X:\n    @property\n    def coefficients(self): return {}\n"
    )
    assert view_reads(fine, "coefficients") == []
    views = ast.parse(
        "for a, c in omega.xi.items(): pass\n"
        "first = v.alpha[0]\n"
        "rows = [w.coords() for w in basis]\n"
        "total = sum(u.beta)\n"
        "dense = act(v, s).coords()\n"
        "class V:\n"
        "    def __repr__(self):\n"
        "        return str(self.alpha) + str(self.xi) + str(self.coords())\n"
        "    def show(self):\n"
        "        return str(self.beta)\n"
    )
    assert view_reads(views, "xi") == [1]
    assert view_reads(views, "alpha") == [2]
    assert view_reads(views, "coords") == [3, 5]
    assert view_reads(views, "beta") == [4, 10]
    fine = ast.parse(
        "for a, n in omega.nums.items(): pass\n"
        "alpha, beta = coords(v)\n"
        "xi = {}\n"
        "data.get('alpha'), data['xi']\n"
        "class W:\n"
        "    @property\n"
        "    def alpha(self): return ()\n"
        "    def coords(self): return []\n"
        "    def __repr__(self): return repr(self.beta)\n"
    )
    assert [view_reads(fine, view) for view in VIEWS] == [[]] * len(VIEWS)
    reductions = ast.parse(
        "import math\n"
        "g = math.gcd(4, 6)\n"
        "def common_factor(den, nums):\n    return gcd(den, *nums)\n"
        "class E:\n"
        "    def f(self):\n        def inner(x): return math.gcd(x, 2)\n        return inner\n"
    )
    assert gcd_callers(reductions) == [None, "common_factor", "inner"]
    assert gcd_callers(ast.parse("def lowest_terms(n, d):\n    return d\nlcm(2, 3)\n")) == []
    restated = ast.parse(
        "class X:\n"
        "    @classmethod\n    def _reduced(cls, nums, den): return nums, den\n"
        "    @classmethod\n"
        "    def from_numerators(cls, m, nums, den):\n"
        "        g = f(den, nums)\n        return {k: v // g for k, v in nums.items()}, den // g\n"
        "class Spinor(StoredForm):\n"
        "    __slots__ = ()\n"
        "    def __eq__(self, other): return True\n"
        "    def scale(self, c): return self\n"
        "    def fock(self): return self\n"
    )
    assert sorted(restated_reductions(restated)) == [
        "Spinor.__eq__", "Spinor.scale", "_reduced", "from_numerators"
    ]
    fine = ast.parse(
        "class W:\n"
        "    @classmethod\n"
        "    def from_numerators(cls, algebra, nums, den=1):\n"
        "        return lowest_terms(tuple(nums), den, False)\n"
        "class AlgebraElement(StoredForm):\n"
        "    def __mul__(self, other): return other\n"
        "    def trace(self): return self.den // 2\n"
    )
    assert restated_reductions(fine) == []
    matrices = ast.parse(
        "class Matrix:\n"
        "    def rref(self): return self\n"
        "    def __mul__(self, other): return other\n"
        "    def transpose(self): return self\n"
        "class Spinor:\n"
        "    def __add__(self, other): return other\n"
    )
    assert entrywise_methods(matrices) == ["__mul__", "transpose"]
