"""File I/O for the single-block SDPA subset."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conic_alm.fixtures import maxcut_fixture
from conic_alm.model import SdpProblem, synth_known_solution
from conic_alm.sdpa import SdpaFormatError, sdpa_read, sdpa_write
from conic_alm.symcone import symmetrize


def _assert_round_trip(p, path):
    sdpa_write(p, path)
    q = sdpa_read(path)
    assert np.array_equal(p.C, q.C)
    assert np.array_equal(p.constraint_mats, q.constraint_mats)
    assert np.array_equal(p.b, q.b)


def test_round_trip_bitwise(tmp_path):
    inst = synth_known_solution(n=4, m=5, rank_x=2, seed=11)
    _assert_round_trip(inst.problem, tmp_path / "p.dat-s")


@pytest.mark.parametrize("name", ["maxcut-g1-20", "maxcut-g2-20", "maxcut-g3-20"])
def test_maxcut_round_trip_bitwise(tmp_path, name):
    _assert_round_trip(maxcut_fixture(name), tmp_path / f"{name}.dat-s")


@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.2, 0.5, 1.0]), exponent=st.integers(-100, 100))
def test_round_trip_property(tmp_path_factory, n, seed, density, exponent):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, n * (n + 1) // 2 + 1))

    def draw():
        keep = (rng.random((n, n)) < density) | np.eye(n, dtype=bool)
        M = rng.standard_normal((n, n)) * keep
        return symmetrize(M * 10.0 ** exponent)

    try:
        p = SdpProblem(C=draw(), constraint_mats=np.stack([draw() for _ in range(m)]),
                       b=rng.standard_normal(m) * 10.0 ** exponent)
    except ValueError:
        assume(False)
    _assert_round_trip(p, tmp_path_factory.mktemp("rt") / "p.dat-s")


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


def test_hand_written_file_matches_toy_constructor(tmp_path, toy):
    text = '"2x2 instance with rank-one solutions\n' \
           "2\n1\n2\n" \
           "1 1\n" \
           "0 1 1 1 1\n" \
           "0 1 1 2 -1\n" \
           "0 1 2 2 1\n" \
           "1 1 1 1 1\n" \
           "2 1 2 2 1\n"
    path = tmp_path / "toy.dat-s"
    path.write_text(text)
    p = sdpa_read(path)
    assert_allclose(p.C, toy.problem.C)
    assert_allclose(p.constraint_mats, toy.problem.constraint_mats)
    assert_allclose(p.b, toy.problem.b)


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
