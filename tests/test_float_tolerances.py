"""The float tolerances left in the library: every float literal with a
negative exponent (1e-9, 1e-6, ...) in src/modinv, by module and enclosing
function, with the reason it stays. A new tolerance fails this test until it
is listed here with its reason."""

import ast
from collections import Counter
from pathlib import Path

import modinv

SRC = Path(modinv.__file__).parent

TOLERANCES = {
    # The float index chain 1 <= w_zero <= w_plus <= w_alpha <= w is a note
    # that pinned reports record (perfbench/reference.json); chain_holds
    # decides the chain exactly.
    ("classify.py", "GlobalIndices.check", "1e-9"): 2,
    # d >= 1 on ring files: an exact order on dims from an unvalidated file
    # can need unbounded precision, which would hang on hostile input.
    ("fusion.py", "validate", "1e-9"): 1,
}


def _tolerances(path: Path) -> Counter:
    source = path.read_text()
    found = Counter()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Constant) and isinstance(child.value, float):
                text = ast.get_source_segment(source, child)
                if "e-" in text.lower():
                    found[path.name, ".".join(scope), text] += 1
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_only_the_listed_float_tolerances_remain():
    found = sum((_tolerances(path) for path in sorted(SRC.glob("*.py"))), Counter())
    assert dict(found) == TOLERANCES
