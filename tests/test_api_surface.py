"""Every public name in ``advnav`` has a caller outside the tests.

Checked with ``ast`` against the non-test sources of ``src/advnav`` and
``perfbench``:

* every public top-level function and class is referenced by name
  somewhere other than inside its own definition;
* every public method, property and class-level field (dataclass and
  NamedTuple fields) is read as ``.name``.

Names match by spelling, not by type: one read of ``x.decode`` keeps every
public ``decode`` alive.  So the check errs towards passing; it stops API
that only the tests reach from growing back, it does not prove liveness.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "advnav"

# public names that may stay without a caller outside the tests, and why
ALLOWED = {
    "train_attacker": "attacker pretraining, the paper's second stage",
    "PerturbedInstruction.timestep": "perfbench's probe passes apply_perturbation a timestep",
    "Vocabulary.decode": "renders instructions as words for the planned run traces",
}


class _Reads(ast.NodeVisitor):
    """Names loaded bare (``f``) and as attributes (``x.f``), leaving out
    reads of a function's or a class's own name inside its body."""

    def __init__(self):
        self.names, self.attrs, self._defs = set(), set(), []

    def visit_FunctionDef(self, node):
        self._defs.append(node.name)
        self.generic_visit(node)
        self._defs.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self._defs:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and node.attr not in self._defs:
            self.attrs.add(node.attr)
        self.generic_visit(node)


def _public_api(tree):
    """(qualified name, bare name, is top-level) per public name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, True
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield f"{node.name}.{name}", name, False


def unreached_public_names():
    package = sorted(PACKAGE.glob("*.py"))
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
             if not p.name.startswith("test_") and p.name != "conftest.py"]
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in package + bench}
    reads = _Reads()
    for tree in trees.values():
        reads.visit(tree)
    return {qual for p in package for qual, name, top_level in _public_api(trees[p])
            if name not in (reads.names | reads.attrs if top_level else reads.attrs)}


def test_every_public_name_has_a_caller_outside_the_tests():
    unreached = unreached_public_names()
    assert unreached - set(ALLOWED) == set(), \
        "reached only from tests: delete them, or give them a caller"
    assert set(ALLOWED) - unreached == set(), \
        "these have callers now: drop them from ALLOWED"
