"""File I/O for the single-block SDPA subset."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conic_alm.fixtures import maxcut_fixture
from conic_alm.model import SdpProblem, SparseOperator, maxcut_instance, synth_known_solution
from conic_alm.sdpa import SdpaFormatError, sdpa_read, sdpa_write
from conic_alm.symcone import symmetrize

from conftest import NONFINITE_SDPA, assert_same_problem, sparse_sdps
from oracles import dense_sdpa_text


def _assert_round_trip(p, path):
    # the writer goes from the nonzeros and writes the bytes of a writer
    # over the dense stack; the reader gives back the nonzeros bit for bit
    sdpa_write(p, path)
    assert path.read_bytes() == dense_sdpa_text(p).encode()
    q = sdpa_read(path)
    assert_same_problem(p, q)
    assert q.name == p.name


def test_round_trip_bitwise(tmp_path):
    inst = synth_known_solution(n=4, m=5, rank_x=2, seed=11)
    _assert_round_trip(inst.problem, tmp_path / "p.dat-s")


@pytest.mark.parametrize("name", ["maxcut-g1-20", "maxcut-g2-20", "maxcut-g3-20"])
def test_maxcut_round_trip_bitwise(tmp_path, name):
    _assert_round_trip(maxcut_fixture(name), tmp_path / f"{name}.dat-s")


@st.composite
def sdpa_problems(draw):
    """A random SDP whose C and A_i keep each entry with a drawn density
    (and their diagonals), values spanning a drawn power of ten."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.2, 0.5, 1.0]))
    exponent = draw(st.integers(-100, 100))
    m = int(rng.integers(1, n * (n + 1) // 2 + 1))

    def draw_matrix():
        keep = (rng.random((n, n)) < density) | np.eye(n, dtype=bool)
        M = rng.standard_normal((n, n)) * keep
        return symmetrize(M * 10.0 ** exponent)

    try:
        return SdpProblem(C=draw_matrix(),
                          constraint_mats=np.stack([draw_matrix() for _ in range(m)]),
                          b=rng.standard_normal(m) * 10.0 ** exponent)
    except ValueError:
        assume(False)


@given(st.one_of(sdpa_problems(), sparse_sdps()))
def test_round_trip_property(tmp_path_factory, p):
    _assert_round_trip(p, tmp_path_factory.mktemp("rt") / "p.dat-s")


def test_sparse_problems_form_no_dense_stack(tmp_path):
    # max-cut at n = 200 built from its weights, written, and read back: the
    # (m, n, n) stack would take m n^2 8 bytes = 64 MB, and no step comes
    # within a tenth of that
    n = 200
    W = np.triu(np.random.default_rng(n).random((n, n)) < 0.1, 1).astype(float)
    W = W + W.T
    path = tmp_path / "g200.dat-s"
    steps = {"maxcut_instance": lambda: maxcut_instance(W),
             "sdpa_write": lambda: sdpa_write(maxcut_instance(W), path),
             "sdpa_read": lambda: sdpa_read(path)}
    for name, step in steps.items():
        tracemalloc.start()
        try:
            out = step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * n * n * n * 8, name
        if out is not None:
            assert isinstance(out.operator, SparseOperator)
            assert out.operator.val.size == n


def test_duplicate_entry_names_both_lines(tmp_path):
    text = "1\n1\n2\n1\n0 1 1 1 1.0\n1 1 1 2 2.0\n0 1 1 1 3.0\n"
    path = tmp_path / "dup.dat-s"
    path.write_text(text)
    with pytest.raises(SdpaFormatError, match="line 7: duplicate entry.*line 5") as info:
        sdpa_read(path)
    assert info.value.line_no == 7


def test_same_position_in_different_matrices_is_not_a_duplicate(tmp_path):
    text = "2\n1\n2\n1 1\n0 1 1 2 1.0\n1 1 1 2 2.0\n2 1 1 2 3.0\n2 1 2 2 1.0\n"
    path = tmp_path / "ok.dat-s"
    path.write_text(text)
    p = sdpa_read(path)
    assert p.constraint_mats[0, 1, 0] == 2.0
    assert p.constraint_mats[1, 0, 1] == 3.0


def test_write_example_d1_bytes(tmp_path, toy):
    # frozen writer output: header, b, then the nonzero upper-triangle
    # entries of C, A_1, ..., A_m in row-major order
    path = tmp_path / "d1.dat-s"
    sdpa_write(toy.problem, path)
    assert path.read_text() == ('"problem example-d1\n'
                                "2\n1\n2\n"
                                "1 1\n"
                                "0 1 1 1 1\n"
                                "0 1 1 2 -1\n"
                                "0 1 2 2 1\n"
                                "1 1 1 1 1\n"
                                "2 1 2 2 1\n")


def test_hand_written_file_matches_toy_constructor(tmp_path, toy):
    text = '"2x2 instance with rank-one solutions\n' \
           "2\n1\n2\n" \
           "1 1\n" \
           "0 1 1 1 1\n" \
           "0 1 1 2 -1\n" \
           "0 1 2 2 1\n" \
           "1 1 1 1 1\n" \
           "1 1 1 2 0\n" \
           "2 1 2 2 1\n" \
           "2 1 1 1 -0.0\n"
    path = tmp_path / "toy.dat-s"
    path.write_text(text)
    p = sdpa_read(path)
    # a comment that is not a problem header leaves the default name
    assert p.name == "sdpa"
    # the explicit zeros are dropped, as the stack entry drops them
    assert_same_problem(p, toy.problem)


def test_problem_name_round_trip(tmp_path, toy):
    path = tmp_path / "d1.dat-s"
    sdpa_write(toy.problem, path)
    assert sdpa_read(path).name == "example-d1"
    # the header is the first line only; a later one is an ordinary comment
    path.write_text('"a comment\n' + path.read_text())
    assert sdpa_read(path).name == "sdpa"


def test_comment_lines_ignored(tmp_path):
    text = '"first comment\n*second comment\n1\n1\n1\n2\n0 1 1 1 3\n1 1 1 1 1\n'
    path = tmp_path / "c.dat-s"
    path.write_text(text)
    p = sdpa_read(path)
    assert p.n == 1
    assert p.C[0, 0] == 3.0


def test_bad_index_reports_line(tmp_path):
    text = "1\n1\n2\n1\n0 1 1 3 1.0\n"
    path = tmp_path / "bad.dat-s"
    path.write_text(text)
    with pytest.raises(SdpaFormatError, match="line 5"):
        sdpa_read(path)


def test_lower_triangle_rejected(tmp_path):
    text = "1\n1\n2\n1\n1 1 2 1 1.0\n"
    path = tmp_path / "low.dat-s"
    path.write_text(text)
    with pytest.raises(SdpaFormatError, match="upper triangle"):
        sdpa_read(path)


def test_multi_block_unsupported(tmp_path):
    text = "1\n2\n2 3\n1\n"
    path = tmp_path / "mb.dat-s"
    path.write_text(text)
    with pytest.raises(SdpaFormatError, match="unsupported"):
        sdpa_read(path)


def test_diagonal_block_unsupported(tmp_path):
    text = "1\n1\n-3\n1\n"
    path = tmp_path / "diag.dat-s"
    path.write_text(text)
    with pytest.raises(SdpaFormatError, match="positive integer"):
        sdpa_read(path)


def test_malformed_value_reports_line(tmp_path):
    text = "1\n1\n2\n1\n0 1 1 1 abc\n"
    path = tmp_path / "val.dat-s"
    path.write_text(text)
    with pytest.raises(SdpaFormatError, match="line 5"):
        sdpa_read(path)


@pytest.mark.parametrize("text,line", NONFINITE_SDPA)
def test_nonfinite_value_reports_line(tmp_path, text, line):
    path = tmp_path / "nonfinite.dat-s"
    path.write_text(text)
    with pytest.raises(SdpaFormatError, match=f"line {line}: .* is not finite"):
        sdpa_read(path)


def test_wrong_b_count(tmp_path):
    text = "2\n1\n2\n1\n"
    path = tmp_path / "b.dat-s"
    path.write_text(text)
    with pytest.raises(SdpaFormatError, match="expected 2 entries"):
        sdpa_read(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "short.dat-s"
    path.write_text("2\n1\n")
    with pytest.raises(SdpaFormatError, match="too short"):
        sdpa_read(path)


# example1.dat-s of the SDPA manual: a comment after each header number, b in
# braces with commas
SDPA_EXAMPLE1 = '''"Example 1: mDim = 3, nBLOCK = 1, {2}"
   3  =  mDIM
   1  =  nBOLCK
   2  = bLOCKsTRUCT
{48, -8, 20}
0 1 1 1 -11
0 1 2 2 23
1 1 1 1 10
1 1 1 2 4
2 1 2 2 -8
3 1 1 2 -8
3 1 2 2 -2
'''


def test_sdpa_manual_example1(tmp_path):
    path = tmp_path / "example1.dat-s"
    path.write_text(SDPA_EXAMPLE1)
    p = sdpa_read(path)
    assert (p.m, p.n) == (3, 2)
    assert np.array_equal(p.b, [48.0, -8.0, 20.0])
    assert np.array_equal(p.C, [[-11.0, 0.0], [0.0, 23.0]])
    assert np.array_equal(p.constraint_mats[2], [[0.0, -8.0], [-8.0, -2.0]])


def test_parenthesized_block_size(tmp_path):
    path = tmp_path / "paren.dat-s"
    path.write_text("1\n1\n(2)\n(1)\n0 1 1 1 3\n1 1 1 1 1\n")
    assert sdpa_read(path).n == 2


@pytest.mark.parametrize("text,message", [
    ("x = mDIM\n1\n2\n1\n", "line 1: could not parse constraint count m from 'x'"),
    ("{}\n1\n2\n1\n", "line 1: could not parse constraint count m from ''"),
    ("1\n2.5\n2\n1\n", "line 2: could not parse block count from '2.5'"),
    ("1\n1\n{2, 3}\n1\n", "line 3: block structure must contain exactly one block size"),
    ("1\n1\nn = 2\n1\n", "line 3: could not parse block size from 'n'"),
    ("2\n1\n2\n{1, x}\n", "line 4: expected 2 entries of b, got 1"),
    ("2\n1\n2\n{1, 2, 3}\n", "line 4: expected 2 entries of b, got 3"),
    ("1\n1\n2\n{1e}\n", "line 4: could not parse b entry from '1e'"),
    ("0\n1\n2\n1\n", "line 1: constraint count m must be >= 1"),
])
def test_header_rejections_name_the_line(tmp_path, text, message):
    path = tmp_path / "bad.dat-s"
    path.write_text(text)
    with pytest.raises(SdpaFormatError) as info:
        sdpa_read(path)
    assert str(info.value) == message


@pytest.mark.parametrize("entry,message", [
    ("0 1 1 1", "expected 'matno blkno i j value', got 4 fields"),
    ("0 1 1 1 1.0 2.0", "expected 'matno blkno i j value', got 6 fields"),
    ("2 1 1 1 1.0", "matrix number 2 out of range [0, 1]"),
    ("-1 1 1 1 1.0", "matrix number -1 out of range [0, 1]"),
    ("1 2 1 1 1.0", "block number 2 out of range (single block)"),
    ("1 0 1 1 1.0", "block number 0 out of range (single block)"),
])
def test_entry_rejections_name_the_line(tmp_path, entry, message):
    path = tmp_path / "bad.dat-s"
    path.write_text(f"1\n1\n2\n1\n1 1 1 1 1.0\n{entry}\n")
    with pytest.raises(SdpaFormatError) as info:
        sdpa_read(path)
    assert str(info.value) == f"line 6: {message}"
