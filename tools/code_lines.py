"""Count the code lines of src/fusioncover/*.py, per module and in total.

A code line holds some token other than a comment: blank lines,
comment-only lines and module, class and function docstrings are left out.
Run from anywhere: ``python tools/code_lines.py``.
"""

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fusioncover"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    lines = {tok.start[0] for tok in tokens if tok.type not in NOT_CODE}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines -= set(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


total = 0
for path in sorted(SRC.glob("*.py")):
    count = code_lines(path.read_text())
    total += count
    print(f"{count:6d}  {path.name}")
print(f"{total:6d}  total")
