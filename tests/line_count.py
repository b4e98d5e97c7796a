"""The lines of src/rdiv/*.py, per file and in total, split into code,
docstring, comment and blank lines, so that a cut in docstrings does not
read as a cut in code.  Run from the repository root:

    python tests/line_count.py

A docstring is the first statement of a module, class or def that is a
string alone on its lines, and the blank lines inside it count as
docstring; a comment line holds nothing but a comment."""

import glob
import io
import tokenize

SKIP = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.COMMENT, tokenize.ENCODING}
KINDS = ("code", "docstring", "comment", "blank")


def kinds(text: str) -> list[str]:
    """The kind of each line of the Python source text."""
    lines = text.splitlines()
    kind = ["blank" if not line.strip() else "code" for line in lines]
    toks = list(tokenize.generate_tokens(io.StringIO(text).readline))
    for t in toks:
        if t.type == tokenize.COMMENT and lines[t.start[0] - 1].lstrip().startswith("#"):
            kind[t.start[0] - 1] = "comment"
    sig = [t for t in toks if t.type not in SKIP]
    for i, t in enumerate(sig):
        after = sig[i + 1] if i + 1 < len(sig) else None
        first = i == 0 or sig[i - 1].string == ":"
        if t.type == tokenize.STRING and first and (after is None or after.start[0] > t.end[0]):
            kind[t.start[0] - 1 : t.end[0]] = ["docstring"] * (t.end[0] - t.start[0] + 1)
    return kind


def rows(pattern: str = "src/rdiv/*.py"):
    """(path, [code, docstring, comment, blank]) per file in path order, then
    ("total", the column sums)."""
    table = []
    for path in sorted(glob.glob(pattern)):
        with open(path, encoding="utf-8") as fh:
            kind = kinds(fh.read())
        table.append((path, [kind.count(k) for k in KINDS]))
    table.append(("total", [sum(col) for col in zip(*(r for _, r in table))]))
    return table


if __name__ == "__main__":
    print(f"{'file':<24}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path, r in rows():
        print(f"{path:<24}{sum(r):>7}" + "".join(f"{n:>11}" for n in r))
