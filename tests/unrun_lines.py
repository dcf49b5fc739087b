"""Print the executable lines of src/simal that the tier-1 tests never run.

    python tests/unrun_lines.py [extra pytest arguments]

Run from the root of a checkout.  A stdlib line tracer (sys.settrace,
and threading.settrace for threads) records every line run in a file
under src/simal while pytest runs the tier-1 suite in this process.  A
module's executable lines are the line numbers of its compiled code
objects, nested ones included (co_lines).  The unrun ones are printed
grouped by module, as ranges, then their total; then, by module, the
first lines of the raise statements among them, and their count.  The
exit status is pytest's when that is not 0, else 1 if a module of
CLOSED has an unrun raise statement, else 0.  Tracing slows the suite
several times over, and the subprocesses some tests start are not
traced.

The name has no test_ prefix, so pytest does not collect this file.
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "simal")

# Modules whose every raise statement runs in tier-1 (ROADMAP item 11):
# a check added to one of them comes with a test that fires it.
CLOSED = ("galois", "reflection", "limits", "commutator", "groupoid",
          "suite", "terms", "io", "corpus", "congruences", "simplicial",
          "algebra")


def executable_lines(path):
    """The line numbers of every code object compiled from the file."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def raise_lines(path):
    """The first line of every raise statement in the file."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Raise)}


def ranges(numbers):
    """'3-5, 9' for [3, 4, 5, 9]."""
    runs = []
    for n in sorted(numbers):
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(f"{a}-{b}" if b > a else f"{a}" for a, b in runs)


def trace_tier1(args):
    """Run pytest on tests/ under the tracer; returns (exit status, run
    lines by absolute path)."""
    hits, known = {}, {}

    def local(frame, event, arg):
        if event == "line":
            hits[known[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            path = os.path.abspath(name)
            known[name] = path if path.startswith(PACKAGE + os.sep) else None
            if known[name]:
                hits.setdefault(path, set())
        return local if known[name] else None

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors",
                              os.path.join(ROOT, "tests")] + args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, hits


def main(args):
    status, hits = trace_tier1(args)
    total = counted = 0
    raises = {}
    print("unrun executable lines of src/simal under tier-1:")
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = executable_lines(path)
        unrun = lines - hits.get(path, set())
        total += len(unrun)
        counted += len(lines)
        if unrun:
            print(f"  simal/{name}: {len(unrun)}: {ranges(unrun)}")
        raises[name] = sorted(unrun & raise_lines(path))
    print(f"{total} of {counted} executable lines unrun")
    print("unrun raise statements of src/simal, by first line:")
    for name, unrun in raises.items():
        if unrun:
            print(f"  simal/{name}: {len(unrun)}: "
                  + ", ".join(map(str, unrun)))
    print(f"{sum(map(len, raises.values()))} raise statements unrun")
    reopened = [name for name in CLOSED if raises.get(f"{name}.py")]
    if reopened:
        print("unrun raise statements in closed modules: "
              + ", ".join(reopened))
    return int(status) or int(bool(reopened))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
