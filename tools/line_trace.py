"""List the statement lines of src/fusioncover that the tests never run.

Runs ``pytest tests`` in this process under ``sys.settrace`` (and
``threading.settrace``), records the lines run by every frame whose code
is in ``src/fusioncover``, and prints each statement line that no test
ran, as ``file:line: source``.  Docstrings are not statements, and a
statement counts only where the compiled module has code on its line.
The bodies of ``if TYPE_CHECKING:`` blocks never run by design; they are
listed apart, after the rest.  A line that only a child process runs (a
test that starts ``python -m fusioncover.cli``) is listed too: children
are not traced.  Only the standard library, pytest and hypothesis (which
the tests use) are imported; ``coverage`` is not needed.

Run from anywhere: ``python tools/line_trace.py``.  Further arguments go
to pytest (``python tools/line_trace.py -x``).  The tests run from the repo
root with ``src`` first on the path, as CI runs them; the exit code is
pytest's.
"""

import ast
import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fusioncover"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statement_lines(text: str, filename: str) -> tuple[set[int], set[int]]:
    """(statement lines outside ``if TYPE_CHECKING:`` bodies, those inside)."""
    tree = ast.parse(text)
    docstrings, guarded = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.add(id(node.body[0]))
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
            "TYPE_CHECKING", "typing.TYPE_CHECKING"
        ):
            guarded.update(sub.lineno for stmt in node.body for sub in ast.walk(stmt)
                           if isinstance(sub, ast.stmt))
    lines = {node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.stmt) and id(node) not in docstrings}
    with_code, stack = set(), [compile(text, filename, "exec")]
    while stack:
        code = stack.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
    lines &= with_code
    return lines - guarded, lines & guarded


class NoDeadline:
    """A pytest plugin: the tracer slows every traced example, and a
    hypothesis deadline would fail a test on time alone, which says nothing
    about the lines run.  hypothesis is imported once pytest has configured
    its assertion rewriting, as the tests import it."""

    @staticmethod
    def pytest_configure(config):
        import hypothesis

        hypothesis.settings.register_profile("line_trace", deadline=None)
        hypothesis.settings.load_profile("line_trace")


def traced_pytest(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer; return its exit code and the lines run, by file."""
    import pytest

    prefix = str(SRC) + os.sep
    ran: dict[str, set[int]] = {}
    by_filename: dict[str, set[int] | None] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            lines = by_filename[filename]
        except KeyError:
            real = os.path.realpath(filename)
            lines = by_filename[filename] = (ran.setdefault(real, set())
                                             if real.startswith(prefix) else None)
        if lines is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests", *args],
                             plugins=[NoDeadline])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main() -> int:
    status, ran = traced_pytest(sys.argv[1:])
    missed, by_design, total = [], [], 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        lines, guarded = statement_lines(text, str(path))
        total += len(lines)
        run = ran.get(os.path.realpath(path), set())
        where = path.relative_to(ROOT)
        missed += [f"{where}:{n}: {source[n - 1].strip()}" for n in sorted(lines - run)]
        by_design += [f"{where}:{n}: {source[n - 1].strip()}" for n in sorted(guarded - run)]
    print(f"\n{len(missed)} of {total} statement lines in src/fusioncover never ran:")
    print("\n".join(missed))
    print(f"\n{len(by_design)} more under `if TYPE_CHECKING:`, never run by design:")
    print("\n".join(by_design))
    return status


if __name__ == "__main__":
    sys.exit(main())
