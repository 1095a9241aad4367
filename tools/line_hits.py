"""Report the statements of src/bandchol that a pytest run never executes.

Runs pytest in this process under a sys.settrace hook that records the
lines executed in the package's own files, then prints, for each module,
the statements that ast finds there and the run never reached. It needs
nothing beyond the standard library and pytest. Run from the repository
root; arguments go to pytest and default to the tier-1 command's:

    PYTHONPATH=src python tools/line_hits.py [pytest arguments]

Code that runs only in another thread, a spawned replication worker or a
subprocess is not traced.
"""

import ast
import os
import sys

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "bandchol")
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]


def missed(path, hits):
    """Sorted first lines of the statements in path that no line in hits
    reaches. A statement is reached when a line of its header (decorators
    included; all of a simple statement) ran, or a statement in its body
    did. A docstring or other bare constant is not a statement."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    stmts = [node for node in ast.walk(tree) if isinstance(node, ast.stmt)
             and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))]
    ran = set()
    for node in stmts:
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(first, body[0].lineno - 1) if body else node.end_lineno
        if hits.intersection(range(first, last + 1)):
            ran.add(id(node))
    return sorted({node.lineno for node in stmts
                   if not any(id(inner) in ran for inner in ast.walk(node))})


def main(argv):
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(PACKAGE):
            return None
        hits.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.settrace(tracer)
    try:
        status = pytest.main(argv or TIER1_ARGS)
    finally:
        sys.settrace(None)
    total = 0
    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            path = os.path.join(PACKAGE, filename)
            lines = missed(path, hits.get(path, set()))
            total += len(lines)
            print(f"{filename}: {', '.join(map(str, lines)) or 'all statements run'}")
    print(f"never executed: {total} statements")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
