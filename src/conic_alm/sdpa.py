"""Reader/writer for a single-block dense subset of the SDPA sparse format.

Layout: optional comment lines starting with ``"`` or ``*``, then the number
of constraints m, the number of blocks (must be 1), the block structure (a
single positive n), the m entries of b on one line, and entry lines
``matno blkno i j value`` with 1-based upper-triangle indices. matno 0 is the
cost matrix C (stored directly, no sign flip), matno 1..m the constraint
matrices. A first line ``"problem NAME``, as written by :func:`sdpa_write`,
names the problem; without it the problem is named ``sdpa``. Each
(matno, i, j) may appear at most once; a repeated entry is
rejected with both line numbers. Values are written with 17 significant
digits so a write/read round trip reproduces the float64 data exactly.
The constraint matrices are read into, and written from, their nonzeros
(``SdpProblem.from_triplets``, ``operator.triplets()``), so a sparse problem
never forms an (m, n, n) array; an explicit zero entry is dropped.

As in the SDPA manual's examples, the four header lines read the
characters ``, ( ) { }`` as blanks (``{48, -8, 20}``, ``(2)``) and may end
in a comment: a line counts its leading numbers only (``3 = mDIM``).
"""

import numpy as np

from .model import SdpProblem


class SdpaFormatError(ValueError):
    """Malformed or unsupported SDPA input; carries the offending line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def sdpa_write(p, path):
    """Write problem p to path in the single-block SDPA subset, from the
    nonzeros of its constraint operator (no (m, n, n) stack is formed)."""
    lines = [f'"problem {p.name}', str(p.m), "1", str(p.n)]
    lines.append(" ".join(_fmt(v) for v in p.b))
    # nonzeros of the upper triangles in (matno, i, j) order, C first
    upper_C = np.triu(p.C)
    lines += [f"0 1 {i + 1} {j + 1} {_fmt(upper_C[i, j])}" for i, j in zip(*np.nonzero(upper_C))]
    k, row, col, val = p.operator.triplets()
    upper = row <= col
    lines += [f"{matno + 1} 1 {i + 1} {j + 1} {_fmt(v)}"
              for matno, i, j, v in zip(k[upper], row[upper], col[upper], val[upper])]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def sdpa_read(path):
    """Parse a single-block SDPA-subset file into an SdpProblem."""
    with open(path) as fh:
        raw = fh.readlines()
    numbered = [(no, line.strip()) for no, line in enumerate(raw, start=1)]
    body = [(no, line) for no, line in numbered
            if line and not line.startswith('"') and not line.startswith("*")]
    if len(body) < 4:
        raise SdpaFormatError("file too short: need m, nblocks, block sizes, and b")

    no, tok = body[0]
    m = _parse_int(_header_numbers(tok)[0], no, "constraint count m")
    if m < 1:
        raise SdpaFormatError("constraint count m must be >= 1", no)

    no, tok = body[1]
    nblocks = _parse_int(_header_numbers(tok)[0], no, "block count")
    if nblocks != 1:
        raise SdpaFormatError(f"unsupported: {nblocks} blocks (only a single "
                              "dense semidefinite block is supported)", no)

    no, tok = body[2]
    sizes = _header_numbers(tok)
    if len(sizes) != 1:
        raise SdpaFormatError("block structure must contain exactly one block size", no)
    n = _parse_int(sizes[0], no, "block size")
    if n < 1:
        raise SdpaFormatError("unsupported block type: block size must be a "
                              "positive integer (diagonal blocks unsupported)", no)

    no, tok = body[3]
    bvals = _header_numbers(tok)
    if len(bvals) != m:
        raise SdpaFormatError(f"expected {m} entries of b, got {len(bvals)}", no)
    b = np.array([_parse_float(v, no, "b entry") for v in bvals])

    C = np.zeros((n, n))
    entries = []
    seen = {}
    for no, tok in body[4:]:
        parts = tok.split()
        if len(parts) != 5:
            raise SdpaFormatError(f"expected 'matno blkno i j value', got {len(parts)} fields", no)
        matno = _parse_int(parts[0], no, "matrix number")
        blkno = _parse_int(parts[1], no, "block number")
        i = _parse_int(parts[2], no, "row index")
        j = _parse_int(parts[3], no, "column index")
        v = _parse_float(parts[4], no, "value")
        if not 0 <= matno <= m:
            raise SdpaFormatError(f"matrix number {matno} out of range [0, {m}]", no)
        if blkno != 1:
            raise SdpaFormatError(f"block number {blkno} out of range (single block)", no)
        if not 1 <= i <= n or not 1 <= j <= n:
            raise SdpaFormatError(f"index ({i}, {j}) out of range [1, {n}]", no)
        if i > j:
            raise SdpaFormatError(f"lower-triangle index ({i}, {j}); store the upper triangle", no)
        first = seen.setdefault((matno, i, j), no)
        if first != no:
            raise SdpaFormatError(f"duplicate entry for matrix {matno} at ({i}, {j}); "
                                  f"first given on line {first}", no)
        if matno == 0:
            C[i - 1, j - 1] = C[j - 1, i - 1] = v
            continue
        # both triangles; SdpProblem.from_triplets drops an explicit 0
        entries.append((matno - 1, i - 1, j - 1, v))
        if i != j:
            entries.append((matno - 1, j - 1, i - 1, v))
    triplets = tuple(zip(*entries)) if entries else ((), (), (), ())
    return SdpProblem.from_triplets(C, triplets, b, name=_header_name(raw[0]))


_BLANKS = str.maketrans(",(){}", "     ")


def _header_numbers(line):
    """The leading numbers of a header line: ``, ( ) { }`` read as blanks,
    and the first field that is not a number starts a comment. A line that
    opens with no number gives its first field (or ''), which the caller's
    parse then rejects by name."""
    fields = line.translate(_BLANKS).split() or [""]
    for k, tok in enumerate(fields):
        try:
            float(tok)
        except ValueError:
            return fields[:max(k, 1)]
    return fields


def _header_name(first_line):
    """NAME from a ``"problem NAME`` first line, else ``sdpa``."""
    tag = '"problem '
    name = first_line[len(tag):].strip() if first_line.startswith(tag) else ""
    return name or "sdpa"


def _fmt(v):
    return f"{v:.17g}"


def _parse_int(tok, line_no, what):
    try:
        return int(tok)
    except ValueError:
        raise SdpaFormatError(f"could not parse {what} from {tok!r}", line_no) from None


def _parse_float(tok, line_no, what):
    try:
        v = float(tok)
    except ValueError:
        raise SdpaFormatError(f"could not parse {what} from {tok!r}", line_no) from None
    if not np.isfinite(v):
        raise SdpaFormatError(f"{what} {tok!r} is not finite", line_no)
    return v
