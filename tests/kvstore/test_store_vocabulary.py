"""The store speaks only the expressions Beldi writes.

``repro.kvstore.expressions`` and the transaction ops in
``repro.kvstore.surface`` are the store's vocabulary: conditions,
update operands, update actions and ``Transact*`` ops. Every form in it
is built somewhere in ``src/`` outside the two modules that define and
re-export it — by source, in the style of
``tests/kvstore/test_store_tree.py``. A form nobody builds is deleted,
and comes back together with its first caller.
"""

import ast
import inspect
import pathlib
import re

from hypothesis import given, settings

import repro.kvstore
import store_spec
from repro.kvstore import expressions, surface
from repro.kvstore.expressions import Condition, Operand, UpdateAction

SRC = pathlib.Path(surface.__file__).resolve().parents[1]
#: The modules that define and re-export the vocabulary build nothing.
DEFINING = ("kvstore/expressions.py", "kvstore/__init__.py")
BASES = (Condition, Operand, UpdateAction)


def vocabulary() -> dict:
    """``name -> class`` of every public condition, operand and update
    action ``expressions`` defines, and every ``Transact*`` op
    ``surface`` defines."""
    forms = {name: cls for name, cls in vars(expressions).items()
             if inspect.isclass(cls) and not name.startswith("_")
             and cls.__module__ == expressions.__name__
             and issubclass(cls, BASES) and cls not in BASES}
    forms.update((name, cls) for name, cls in vars(surface).items()
                 if inspect.isclass(cls) and name.startswith("Transact")
                 and cls.__module__ == surface.__name__)
    return forms


def _called(node: ast.AST) -> str:
    """The name a call calls, as ``Name(...)`` or ``module.Name(...)``."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
    return ""


def built_in_src(root: pathlib.Path, forms: dict) -> set:
    """The forms some module under ``root`` (the defining ones aside)
    constructs: a call of the form, or — for ``Or`` — ``a | b`` with a
    condition built on either side."""
    conditions = {name for name, cls in forms.items()
                  if issubclass(cls, Condition)}
    scanned, built = 0, set()
    for file in sorted(root.rglob("*.py")):
        if str(file.relative_to(root)) in DEFINING:
            continue
        scanned += 1
        for node in ast.walk(ast.parse(file.read_text())):
            if _called(node) in forms:
                built.add(_called(node))
            elif (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.BitOr)
                    and {_called(node.left), _called(node.right)}
                    & conditions):
                built.add("Or")
    assert scanned > 40, "the scan found almost nothing"
    return built


def test_the_vocabulary_is_what_the_package_exports():
    forms = vocabulary()
    exported = {name for name in repro.kvstore.__all__
                if name in forms or (
                    inspect.isclass(getattr(repro.kvstore, name))
                    and issubclass(getattr(repro.kvstore, name), BASES))}
    assert exported == set(forms)
    # What this guard is about: the forms the protocol writes.
    assert {"AttrExists", "AttrNotExists", "Eq", "Gt", "SizeLt", "And",
            "Or", "Value", "Plus", "IfNotExists", "Set", "Remove",
            "TransactPut", "TransactUpdate"} <= set(forms)


def test_every_form_is_built_in_src():
    forms = vocabulary()
    orphans = sorted(set(forms) - built_in_src(SRC, forms))
    assert not orphans, (
        f"{orphans}: built nowhere in src/ outside {DEFINING}; delete "
        f"the form, or bring it back together with its first caller")


def test_the_specs_strategies_draw_every_exported_form():
    """So a form that comes back must come back with a spec rule (the
    property draws it and the spec must answer it)."""
    seen: set = set()

    @settings(max_examples=300, database=None, derandomize=True)
    @given(store_spec.CONDITIONS | store_spec.UPDATES
           | store_spec.TRANSACT_OPS)
    def draw(call):
        # ``show`` writes every form it meets as ``Name(...)``.
        seen.update(re.findall(r"\b(\w+)\(", store_spec.show(call)))

    draw()
    missing = sorted(set(vocabulary()) - seen)
    assert not missing, f"{missing}: the store spec's strategies never draw it"
