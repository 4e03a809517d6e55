"""Print how far the numbers of two output trees differ, file by file.

Usage::

    python tools/compare_outputs.py A B

A and B are directories of the same runs, such as two checkouts'
``tools/output_digest.py --keep`` directories.  For each file in either tree
it prints one line, sorted by path::

    <relative>  <absolute>  <differing>/<numbers>  <path>

The numbers are every decimal literal in the file's text, compared in
order.  ``relative`` is the largest |a - b| / max(|a|, |b|) over them and
``absolute`` the largest |a - b|; the second tells a rounding change of a
value near zero, large relative to itself, from a real one.  A file whose
text differs outside its numbers, or whose count of numbers differs,
prints ``text`` or ``count`` in place of the differences; a file in one
tree only prints ``missing``.  Exits 1 if any file differs, 0 otherwise.
"""

import argparse
import re
import sys
from pathlib import Path

import numpy as np

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)\b")


def _split(text):
    """(the text with each number replaced by a marker, the numbers)."""
    numbers = [float(m) for m in _NUMBER.findall(text)]
    return _NUMBER.sub("#", text), np.array(numbers)


def compare(a, b):
    """The (relative, absolute, differing/numbers) columns of two files."""
    if a.read_bytes() == b.read_bytes():
        return "0", "0", ""
    try:
        (text_a, num_a), (text_b, num_b) = _split(a.read_text()), _split(b.read_text())
    except UnicodeDecodeError:
        return "binary", "", ""
    if num_a.size != num_b.size:
        return "count", "", f"{num_a.size}:{num_b.size}"
    if text_a != text_b:
        return "text", "", ""
    with np.errstate(invalid="ignore"):
        differ = ~((num_a == num_b) | (np.isnan(num_a) & np.isnan(num_b)))
        diff = np.abs(num_a - num_b)[differ]
        rel = diff / np.maximum(np.abs(num_a), np.abs(num_b))[differ]
    return (f"{rel.max(initial=0.0):.2e}", f"{diff.max(initial=0.0):.2e}",
            f"{int(differ.sum())}/{num_a.size}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args()
    for root in (args.a, args.b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    paths = sorted({p.relative_to(root) for root in (args.a, args.b)
                    for p in root.rglob("*") if p.is_file()})
    moved = False
    for rel in paths:
        a, b = args.a / rel, args.b / rel
        rel_diff, abs_diff, count = (
            compare(a, b) if a.is_file() and b.is_file() else ("missing", "", ""))
        moved |= rel_diff != "0"
        print(f"{rel_diff:>8}  {abs_diff:>8}  {count:>13}  {rel}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
