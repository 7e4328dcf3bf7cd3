"""How the test tree is laid out: helpers shared between test modules
live in helper modules (``tests/core/dst.py``, ``tests/core/history.py``),
never in a test module. A test module that imports another couples the
two, and an import mode that loads a file under two names runs its
module-level set-up twice."""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent


def imported_modules(source: str) -> list:
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.append(node.module)
    return modules


def test_no_file_under_tests_imports_a_test_module():
    offenders = [
        f"{path.relative_to(TESTS)} imports {module}"
        for path in sorted(TESTS.rglob("*.py"))
        for module in imported_modules(path.read_text())
        if module.rsplit(".", 1)[-1].startswith("test_")]
    assert not offenders, "\n".join(offenders)


def test_the_guard_sees_both_spellings():
    assert imported_modules(
        "from test_gc import advance\n"
        "def f():\n    import tests.core.test_history\n") == [
            "test_gc", "tests.core.test_history"]
