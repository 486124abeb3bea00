"""Reader/writer for a single-block dense subset of the SDPA sparse format.

Layout: optional comment lines starting with ``"`` or ``*``, then the number
of constraints m, the number of blocks (must be 1), the block structure (a
single positive n), the m entries of b on one line, and entry lines
``matno blkno i j value`` with 1-based upper-triangle indices. matno 0 is the
cost matrix C (stored directly, no sign flip), matno 1..m the constraint
matrices. Each (matno, i, j) may appear at most once; a repeated entry is
rejected with both line numbers. Values are written with 17 significant
digits so a write/read round trip reproduces the float64 data exactly.
"""

import numpy as np

from .model import SdpProblem
from .symcone import symmetrize


class SdpaFormatError(ValueError):
    """Malformed or unsupported SDPA input; carries the offending line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def sdpa_write(p, path):
    """Write problem p to path in the single-block SDPA subset."""
    lines = [f'"problem {p.name}', str(p.m), "1", str(p.n)]
    lines.append(" ".join(_fmt(v) for v in p.b))
    mats = [p.C] + [p.constraint_mats[i] for i in range(p.m)]
    for matno, M in enumerate(mats):
        for i in range(p.n):
            for j in range(i, p.n):
                v = M[i, j]
                if v != 0.0:
                    lines.append(f"{matno} 1 {i + 1} {j + 1} {_fmt(v)}")
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
    m = _parse_int(tok.split()[0], no, "constraint count m")
    if m < 1:
        raise SdpaFormatError("constraint count m must be >= 1", no)

    no, tok = body[1]
    nblocks = _parse_int(tok.split()[0], no, "block count")
    if nblocks != 1:
        raise SdpaFormatError(f"unsupported: {nblocks} blocks (only a single "
                              "dense semidefinite block is supported)", no)

    no, tok = body[2]
    sizes = tok.replace("{", " ").replace("}", " ").replace(",", " ").split()
    if len(sizes) != 1:
        raise SdpaFormatError("block structure must contain exactly one block size", no)
    n = _parse_int(sizes[0], no, "block size")
    if n < 1:
        raise SdpaFormatError("unsupported block type: block size must be a "
                              "positive integer (diagonal blocks unsupported)", no)

    no, tok = body[3]
    bvals = tok.replace(",", " ").split()
    if len(bvals) != m:
        raise SdpaFormatError(f"expected {m} entries of b, got {len(bvals)}", no)
    b = np.array([_parse_float(v, no, "b entry") for v in bvals])

    mats = np.zeros((m + 1, n, n))
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
        mats[matno, i - 1, j - 1] = v
        mats[matno, j - 1, i - 1] = v
    C = symmetrize(mats[0])
    return SdpProblem(C=C, constraint_mats=mats[1:], b=b, name="sdpa")


def _fmt(v):
    return f"{v:.17g}"


def _parse_int(tok, line_no, what):
    try:
        return int(tok)
    except ValueError:
        raise SdpaFormatError(f"could not parse {what} from {tok!r}", line_no) from None


def _parse_float(tok, line_no, what):
    try:
        return float(tok)
    except ValueError:
        raise SdpaFormatError(f"could not parse {what} from {tok!r}", line_no) from None
