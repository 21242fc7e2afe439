import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mecouple import exact_min_entropy, make_probvec, min_entropy_coupling
from mecouple.cli import _Cells, _cells, _emit_text, _sig, _to_json, build_parser, main
from golden13 import H_COUPLING13, H_MEET13, MEET13, P13, Q13, coupling_matrix13

# couple-k stdout, byte for byte, for marginals with exact 1/64 ties, unequal
# lengths and unsorted caller order
COUPLE_K_ARGV = (
    "couple-k",
    "0.25 0.125 0.5 0.125",
    "0.375 0.375 0.25",
    "0.1 0.6 0.3",
    "0.0625 0.4375 0.25 0.25",
    "0.2 0.2 0.2 0.2 0.2",
)
COUPLE_K_STDOUT = (
    '{"k":5,"dims":[4,3,3,4,5],"entries":['
    '{"value":0.2,"indices":[2,0,1,1,2]},'
    '{"value":0.175,"indices":[2,0,1,1,1]},'
    '{"value":0.1625,"indices":[0,1,2,3,0]},'
    '{"value":0.0625,"indices":[0,1,1,1,3]},'
    '{"value":0.0625,"indices":[1,2,1,2,3]},'
    '{"value":0.0625,"indices":[3,2,0,0,4]},'
    '{"value":0.0625,"indices":[2,1,1,2,3]},'
    '{"value":0.05,"indices":[1,2,2,2,4]},'
    '{"value":0.0375,"indices":[2,1,1,2,0]},'
    '{"value":0.0375,"indices":[3,2,0,3,4]},'
    '{"value":0.025,"indices":[0,1,2,3,1]},'
    '{"value":0.025,"indices":[2,1,2,3,4]},'
    '{"value":0.025,"indices":[3,2,2,2,4]},'
    '{"value":0.0125,"indices":[1,2,2,2,3]}],'
    '"joint_entropy":3.37996531805,"glb_entropy":2.32192809489,'
    '"bound":5.32192809489,"unit":"bits"}'
    "\n"
)

# stdout of the other commands, byte for byte: the golden-13 pair, an
# unsorted pair, two tie-heavy oracle pairs, a small dense tensor and the
# text format
GOLDEN13_ARGV = (json.dumps(list(P13)), json.dumps(list(Q13)))
PAIR_ARGV = ("0.1 0.6 0.3", "0.25 0.125 0.5 0.125")
SUBNORMAL_ARGV = ("[0.5, 0.5, 1.2345678901234e-315]",) * 2
GOLDEN13_MATRIX = (
    "[[0.15,0.145,0.055,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0],"
    "[0.0,0.005,0.0,0.09,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0],"
    "[0.0,0.0,0.09,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0],"
    "[0.0,0.0,0.0,0.055,0.035,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0],"
    "[0.0,0.0,0.0,0.0,0.09,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0],"
    "[0.0,0.0,0.0,0.0,0.015,0.075,0.0,0.0,0.0,0.0,0.0,0.0,0.0],"
    "[0.0,0.0,0.0,0.0,0.0,0.055,0.025,0.0,0.0,0.0,0.0,0.0,0.0],"
    "[0.0,0.0,0.0,0.0,0.0,0.0,0.025,0.03,0.005,0.0,0.0,0.0,0.0],"
    "[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.025,0.01,0.0,0.0,0.0],"
    "[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.015,0.0,0.0,0.0],"
    "[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.002,0.001,0.0,0.0],"
    "[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0005,0.0005,0.0],"
    "[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0005,0.0,0.0005]]"
)
GOLDEN13_COUPLE_TAIL = (
    '"joint_entropy":3.81782245505,"glb_entropy":3.16818818521,'
    '"gap":0.64963426984,"nnz":25,"unit":"bits"}\n'
)
PINNED_STDOUT = {
    ("glb", *GOLDEN13_ARGV): (
        '{"glb":[0.15,0.15,0.145,0.145,0.125,0.09,0.08,0.055,0.03,0.025,0.003,'
        '0.001,0.001],"entropy":3.16818818521,"unit":"bits"}\n'
    ),
    ("couple", *GOLDEN13_ARGV): (
        '{"order":"original","rows":13,"cols":13,"matrix":'
        + GOLDEN13_MATRIX + "," + GOLDEN13_COUPLE_TAIL
    ),
    ("couple", "--sorted", *GOLDEN13_ARGV): (
        '{"order":"sorted","rows":13,"cols":13,"matrix":'
        + GOLDEN13_MATRIX + "," + GOLDEN13_COUPLE_TAIL
    ),
    ("bounds", *GOLDEN13_ARGV): (
        '{"h_p":2.94360616269,"h_q":3.09796939556,"h_glb":3.16818818521,'
        '"mi_upper_improved":2.87338737305,"mi_upper_classic":2.94360616269,'
        '"joint_lower_classic":3.09796939556,"unit":"bits"}\n'
    ),
    ("distance", *GOLDEN13_ARGV): (
        '{"lower":0.294800812161,"upper":1.59406935184,'
        '"estimate":1.29480081216,"unit":"bits"}\n'
    ),
    ("oracle", *PAIR_ARGV): (
        '{"opt_entropy":1.93048202372,"order":"original","matrix":'
        "[[0.0,0.1,0.0,0.0],[0.0,0.0,0.5,0.1],[0.25,0.025,0.0,0.025]],"
        '"support_size":6,"unit":"bits"}\n'
    ),
    # tie-heavy pairs with several optimal vertices: the stored one pins the
    # oracle's row-major cell order and its strict comparison
    ("oracle", "0.25 0.25 0.25 0.25", "0.125 0.25 0.625"): (
        '{"opt_entropy":2.25,"order":"original","matrix":'
        "[[0.0,0.0,0.25],[0.0,0.0,0.25],[0.125,0.0,0.125],[0.0,0.25,0.0]],"
        '"support_size":5,"unit":"bits"}\n'
    ),
    ("oracle", "0.625 0.125 0.25", "0.25 0.25 0.5"): (
        '{"opt_entropy":1.75,"order":"original","matrix":'
        "[[0.125,0.0,0.5],[0.125,0.0,0.0],[0.0,0.25,0.0]],"
        '"support_size":4,"unit":"bits"}\n'
    ),
    ("couple-k", "--dense", PAIR_ARGV[0], "0.375 0.375 0.25", "0.25 0.75"): (
        '{"k":3,"dims":[3,3,2],"entries":['
        '{"value":0.375,"indices":[1,0,1]},{"value":0.15,"indices":[2,1,1]},'
        '{"value":0.15,"indices":[1,1,0]},{"value":0.15,"indices":[2,2,1]},'
        '{"value":0.1,"indices":[0,2,0]},{"value":0.075,"indices":[1,1,1]}],'
        '"joint_entropy":2.37473880866,"glb_entropy":1.56127812446,'
        '"bound":3.56127812446,"unit":"bits","dense":'
        "[[[0.0,0.0],[0.0,0.0],[0.1,0.0]],[[0.0,0.375],[0.15,0.075],[0.0,0.0]],"
        "[[0.0,0.0],[0.0,0.15],[0.0,0.15]]]}\n"
    ),
    ("--format", "text", "couple", "0.4 0.6", "0.2 0.3 0.5"): (
        "order: original\nrows: 2\ncols: 3\nmatrix:\n  0.2 0.2 0\n  0 0.1 0.5\n"
        "joint_entropy: 1.76096404744\nglb_entropy: 1.48547529723\n"
        "gap: 0.275488750216\nnnz: 4\nunit: bits\n"
    ),
    # a 5 x 3 window with a zero component: the padded 5 x 5 coupling's
    # extra columns are cut from the window
    ("couple", "0.2 0 0.3 0.1 0.4", "0.5 0.25 0.25"): (
        '{"order":"original","rows":5,"cols":3,"matrix":'
        "[[0.0,0.05,0.15],[0.0,0.0,0.0],[0.1,0.2,0.0],[0.0,0.0,0.1],[0.4,0.0,0.0]],"
        '"joint_entropy":2.28418371978,"glb_entropy":1.84643934467,'
        '"gap":0.437744375108,"nnz":6,"unit":"bits"}\n'
    ),
    ("couple", "--sorted", "0.125 0.25 0.125 0.25 0.0625 0.1875",
     "0.1875 0.1875 0.3125 0.3125"): (
        '{"order":"sorted","rows":6,"cols":4,"matrix":'
        "[[0.25,0.0,0.0,0.0],[0.0625,0.1875,0.0,0.0],[0.0,0.125,0.0625,0.0],"
        "[0.0,0.0,0.0,0.125],[0.0,0.0,0.125,0.0],[0.0,0.0,0.0,0.0625]],"
        '"joint_entropy":2.82781953111,"glb_entropy":2.45281953111,'
        '"gap":0.375,"nnz":8,"unit":"bits"}\n'
    ),
    ("--format", "text", "couple", PAIR_ARGV[1], PAIR_ARGV[0]): (
        "order: original\nrows: 4\ncols: 3\nmatrix:\n"
        "  0 0.1 0.15\n  0.1 0 0.025\n  0 0.5 0\n  0 0 0.125\n"
        "joint_entropy: 2.08297866047\nglb_entropy: 1.75\n"
        "gap: 0.332978660475\nnnz: 6\nunit: bits\n"
    ),
    ("oracle", "0.25 0.25 0.125 0.375", "0.125 0.375 0.25 0.25"): (
        '{"opt_entropy":1.90563906223,"order":"original","matrix":'
        "[[0.0,0.0,0.25,0.0],[0.0,0.0,0.0,0.25],[0.125,0.0,0.0,0.0],[0.0,0.375,0.0,0.0]],"
        '"support_size":4,"unit":"bits"}\n'
    ),
    # point masses: entropies are clamped at zero, never -0.0 or -3e-16
    ("couple", "[1.0000000000000002]", "[1.0]"): (
        '{"order":"original","rows":1,"cols":1,"matrix":[[1.0]],"joint_entropy":0.0,'
        '"glb_entropy":0.0,"gap":0.0,"nnz":1,"unit":"bits"}\n'
    ),
    ("couple", "[1.0]", "[1.0]"): (
        '{"order":"original","rows":1,"cols":1,"matrix":[[1.0]],"joint_entropy":0.0,'
        '"glb_entropy":0.0,"gap":0.0,"nnz":1,"unit":"bits"}\n'
    ),
    # a subnormal cell: JSON prints the shortest repr of the 12-digit value,
    # text its 12 digits
    ("--tolerance-zero", "1e-320", "couple", *SUBNORMAL_ARGV): (
        '{"order":"original","rows":3,"cols":3,"matrix":'
        "[[0.5,0.0,0.0],[0.0,0.5,0.0],[0.0,0.0,1.23456789e-315]],"
        '"joint_entropy":1.0,"glb_entropy":1.0,"gap":0.0,"nnz":3,"unit":"bits"}\n'
    ),
    ("--format", "text", "--tolerance-zero", "1e-320", "couple", *SUBNORMAL_ARGV): (
        "order: original\nrows: 3\ncols: 3\nmatrix:\n"
        "  0.5 0 0\n  0 0.5 0\n  0 0 1.234567891e-315\n"
        "joint_entropy: 1\nglb_entropy: 1\ngap: 0\nnnz: 3\nunit: bits\n"
    ),
}

# cell values whose repr is as long as the zero cell's "0.0", or longer; each is a
# 12-digit value, as every cell _cells hands _Cells is
CELL_VALUES = (1e-05, 0.1, 5.55111512313e-17, 1.0)


@st.composite
def sparse_matrices(draw):
    """Nested lists of floats, 1 x 1 to 12 x 12, with 0 to 10 tenths of the cells nonzero."""
    n_rows = draw(st.integers(1, 12))
    n_cols = draw(st.integers(1, 12))
    tenths = draw(st.sampled_from((0, 1, 5, 10)))
    value = st.one_of(
        st.sampled_from(CELL_VALUES),
        st.floats(1e-300, 1.0).map(_sig),
    )
    return [
        [draw(value) if draw(st.integers(0, 9)) < tenths else 0.0 for _ in range(n_cols)]
        for _ in range(n_rows)
    ]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def golden_files(tmp_path):
    p_path = tmp_path / "p.json"
    q_path = tmp_path / "q.json"
    p_path.write_text(json.dumps(list(P13)))
    q_path.write_text(json.dumps(list(Q13)))
    return str(p_path), str(q_path)


class TestInputs:
    def test_inline_plain_text_vector(self, capsys):
        doc = run_json(capsys, "glb", "0.5 0.5", "0.6 0.4")
        assert doc["glb"] == [0.5, 0.5]

    def test_inline_json_vector(self, capsys):
        doc = run_json(capsys, "glb", "[0.5, 0.5]", "[0.6, 0.4]")
        assert doc["glb"] == [0.5, 0.5]

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0.25 0.75\n"))
        doc = run_json(capsys, "glb", "-", "0.5 0.5")
        assert doc["glb"] == [0.5, 0.5]

    def test_text_file_with_newlines(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0.25\n0.75\n")
        doc = run_json(capsys, "glb", str(path), "[0.5,0.5]")
        assert doc["glb"] == [0.5, 0.5]


class TestGoldenInstance:
    def test_glb(self, capsys, golden_files):
        doc = run_json(capsys, "glb", *golden_files)
        assert np.allclose(doc["glb"], MEET13, atol=1e-9)
        assert doc["entropy"] == pytest.approx(H_MEET13, abs=1e-9)

    def test_couple_matches_reference_matrix(self, capsys, golden_files):
        doc = run_json(capsys, "couple", "--sorted", *golden_files)
        assert np.allclose(doc["matrix"], coupling_matrix13(), atol=1e-9)
        assert doc["joint_entropy"] == pytest.approx(H_COUPLING13, abs=1e-9)
        assert doc["glb_entropy"] == pytest.approx(H_MEET13, abs=1e-9)
        assert 0.0 <= doc["gap"] <= 1.0

    def test_sorted_and_original_agree_for_sorted_input(self, capsys, golden_files):
        a = run_json(capsys, "couple", "--sorted", *golden_files)
        b = run_json(capsys, "couple", *golden_files)
        assert a["matrix"] == b["matrix"]


class TestCouple:
    def test_caller_order_and_trimming(self, capsys):
        doc = run_json(capsys, "couple", "0.4 0.6", "0.2 0.3 0.5")
        mat = np.asarray(doc["matrix"])
        assert mat.shape == (2, 3)
        assert np.allclose(mat.sum(axis=1), [0.4, 0.6], atol=1e-9)
        assert np.allclose(mat.sum(axis=0), [0.2, 0.3, 0.5], atol=1e-9)
        assert doc["order"] == "original"
        assert doc["rows"] == 2 and doc["cols"] == 3

    def test_matrix_matches_the_dense_coupling(self, capsys):
        rng = np.random.default_rng(42)
        for i in range(30):
            n, m = (int(x) for x in rng.integers(1, 12, size=2))
            if i % 2:
                raw_p, raw_q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
            else:   # zeros and exact ties
                raw_p = rng.multinomial(64, np.full(n, 1.0 / n)) / 64.0
                raw_q = rng.multinomial(64, np.full(m, 1.0 / m)) / 64.0
            cm = min_entropy_coupling(make_probvec(raw_p), make_probvec(raw_q))
            for flags, full in (([], cm.in_original_order()), (["--sorted"], cm.matrix)):
                doc = run_json(capsys, "couple", *flags,
                               json.dumps(raw_p.tolist()), json.dumps(raw_q.tolist()))
                expected = [[float(f"{v:.12g}") for v in row] for row in full[:n, :m]]
                assert doc["matrix"] == expected

    def test_window_above_the_cell_cap_is_refused(self, capsys, tmp_path):
        p_path, q_path = tmp_path / "p.json", tmp_path / "q.json"
        p_path.write_text(json.dumps([1.0 / 4097] * 4097))
        q_path.write_text(json.dumps([1.0 / 4096] * 4096))
        code, out, err = run(capsys, "couple", str(p_path), str(q_path))
        assert code == 1
        assert err.startswith("InstanceTooLarge")
        assert out == ""

    def test_cell_cap_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr("mecouple.cli.MATRIX_CELL_CAP", 6)
        assert run(capsys, "couple", "0.4 0.6", "0.2 0.3 0.5")[0] == 0
        code, out, err = run(capsys, "couple", "0.4 0.6", "0.2 0.3 0.25 0.25")
        assert (code, out) == (1, "")
        assert err.startswith("InstanceTooLarge")

    def test_gap_certificate(self, capsys):
        doc = run_json(capsys, "couple", "0.5 0.5", "0.6 0.4")
        assert doc["joint_entropy"] == pytest.approx(1.3609640474436812, abs=1e-9)
        assert 0.0 <= doc["gap"] <= 1.0


# a mass of 1 - 1e-10 and 100 masses of 1e-12, each at eps_zero, against
# the point mass [1.0]: the kernel drops the pieces at or below eps_zero, so
# the coupling's entropy reads 0, below the meet's 4.1e-9 bits
TINY_TAIL = json.dumps([1.0 - 1e-10] + [1e-12] * 100)


class TestTinyTailCertificate:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP items 1 and 10")
    def test_couple_gap_is_not_negative(self, capsys):
        assert run_json(capsys, "couple", TINY_TAIL, "[1.0]")["gap"] >= 0.0

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP items 1 and 10")
    def test_distance_lower_is_not_above_upper(self, capsys):
        doc = run_json(capsys, "distance", TINY_TAIL, "[1.0]")
        assert doc["lower"] <= doc["upper"]


class TestCoupleK:
    def test_three_marginals(self, capsys):
        doc = run_json(capsys, "couple-k", "[1.0]", "[1.0]", "[0.5,0.5]")
        got = {tuple(e["indices"]): e["value"] for e in doc["entries"]}
        assert got == pytest.approx({(0, 0, 0): 0.5, (0, 0, 1): 0.5}, abs=1e-9)
        assert doc["k"] == 3
        assert doc["dims"] == [1, 1, 2]
        assert doc["joint_entropy"] == pytest.approx(1.0, abs=1e-9)
        assert doc["bound"] == pytest.approx(1.0 + 2.0, abs=1e-9)

    def test_dense_output(self, capsys):
        doc = run_json(capsys, "couple-k", "--dense", "[0.5,0.5]", "[0.5,0.5]")
        dense = np.asarray(doc["dense"])
        assert dense.shape == (2, 2)
        assert dense.sum() == pytest.approx(1.0, abs=1e-9)

    def test_stdout_is_byte_identical(self, capsys):
        code, out, _ = run(capsys, *COUPLE_K_ARGV)
        assert code == 0
        assert out == COUPLE_K_STDOUT

    def test_tiny_mass_beside_a_shorter_marginal(self, capsys):
        for pre in ((), ("--tolerance-sum", "1e-6", "--tolerance-zero", "1e-10")):
            doc = run_json(capsys, *pre, "couple-k", "[6.666197322778975e-21, 0.9999999999999999]", "[1.0]")
            assert doc["dims"] == [2, 1]
            assert [e["indices"] for e in doc["entries"]] == [[1, 0]]

    def test_single_marginal_rejected(self, capsys):
        code, _, err = run(capsys, "couple-k", "[1.0]")
        assert code == 1
        assert "TooFewMarginals" in err


class TestMatrixWriter:
    @settings(max_examples=300, deadline=None)
    @given(sparse_matrices())
    @example([[0.0]])
    @example([[1.0]])
    @example([[0.0, 0.0, 0.0], [1e-05, 0.1, 5.55111512313e-17], [0.0, 0.0, 0.0]])
    @example([[0.1, 0.0, 0.0, 1e-05], [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 5.55111512313e-17]])
    def test_matches_the_nested_lists(self, nested):
        rows, cols = np.nonzero(np.asarray(nested))
        cells = _Cells(len(nested), len(nested[0]), rows.tolist(), cols.tolist(),
                       [f"{nested[i][j]:.12g}" for i, j in zip(rows.tolist(), cols.tolist())])
        assert _to_json({"matrix": cells}) == (
            json.dumps({"matrix": nested}, separators=(",", ":")) + "\n"
        )
        out = io.StringIO()
        _emit_text({"matrix": cells}, out)
        assert out.getvalue() == "matrix:\n" + "".join(
            "  " + " ".join(f"{v:.12g}" for v in row) + "\n" for row in nested
        )


    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        st.floats(min_value=0.0, max_value=2.3e-308, exclude_min=True),
        st.floats(min_value=9.99e11, max_value=1.01e16),
    ))
    @example(5e-324)
    @example(2.225073858507e-308)
    @example(2.2250738585072014e-308)
    @example(999999999999.5)
    @example(1.5e12)
    @example(9.9999999999999e15)
    @example(1e16)
    @example(1.0)
    @example(100.0)
    @example(1e-05)
    @example(5.551115123126e-17)
    def test_one_format_per_cell(self, v):
        """The stored 12-digit text prints as the rounded float's repr and its %.12g."""
        cells = _cells(1, 1, np.array([0]), np.array([0]), np.array([v]), None)
        assert cells.json_rows() == [f"[{_sig(v)!r}]"]
        assert cells.text() == f"  {_sig(v):.12g}\n"


class TestScalarCommands:
    def test_bounds(self, capsys):
        doc = run_json(capsys, "bounds", "0.5 0.5", "0.6 0.4")
        assert doc["h_glb"] == pytest.approx(1.0, abs=1e-9)
        assert doc["mi_upper_improved"] == pytest.approx(0.9709505944546686, abs=1e-9)
        assert doc["joint_lower_classic"] == pytest.approx(1.0, abs=1e-9)

    def test_distance(self, capsys):
        doc = run_json(capsys, "distance", "0.5 0.5", "0.6 0.4")
        assert doc["lower"] == pytest.approx(0.0290494055453314, abs=1e-9)
        assert doc["upper"] == pytest.approx(0.7509775004326937, abs=1e-9)
        assert doc["estimate"] == pytest.approx(doc["lower"] + 1.0, abs=1e-9)

    def test_oracle(self, capsys):
        doc = run_json(capsys, "oracle", "0.5 0.5", "0.6 0.4")
        assert doc["opt_entropy"] == pytest.approx(1.3609640474436812, abs=1e-9)
        mat = np.asarray(doc["matrix"])
        assert np.allclose(mat.sum(axis=1), [0.5, 0.5], atol=1e-9)
        assert np.allclose(mat.sum(axis=0), [0.6, 0.4], atol=1e-9)

    def test_oracle_matrix_is_the_vertex_coupling_mapped_through_the_perms(self, capsys):
        rng = np.random.default_rng(52)
        for _ in range(20):
            n, m = (int(x) for x in rng.choice(np.arange(2, 6), size=2, replace=False))
            # exact 1/8 ties, zeros included, in unsorted caller order
            raw_p = rng.multinomial(8, np.full(n, 1.0 / n)) / 8.0
            raw_q = rng.multinomial(8, np.full(m, 1.0 / m)) / 8.0
            p, q = make_probvec(raw_p), make_probvec(raw_q)
            _, vc = exact_min_entropy(p, q)
            original = np.zeros((n, m))
            original[np.ix_(p.perm, q.perm)] = vc.matrix
            for flags, full in (([], original), (["--sorted"], vc.matrix)):
                doc = run_json(capsys, "oracle", *flags,
                               json.dumps(raw_p.tolist()), json.dumps(raw_q.tolist()))
                assert doc["matrix"] == [[_sig(v) for v in row] for row in full.tolist()]

    def test_oracle_cap(self, capsys):
        big = "0.2 " + " ".join(["0.1"] * 8)
        code, _, err = run(capsys, "oracle", big, "0.5 0.5")
        assert code == 1
        assert "InstanceTooLarge" in err


class TestOutputContract:
    @pytest.mark.parametrize("argv", list(PINNED_STDOUT), ids=lambda a: " ".join(a)[:40])
    def test_stdout_is_pinned(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == PINNED_STDOUT[argv]

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_usage_error_leaves_later_output_unchanged(self, capsys):
        argv = ("couple", "--sorted", *PAIR_ARGV)
        first = run(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            main(["couple", "--sorted", PAIR_ARGV[0]])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, *argv) == first

    def test_byte_identical_reruns(self, capsys, golden_files):
        _, first, _ = run(capsys, "couple", *golden_files)
        _, second, _ = run(capsys, "couple", *golden_files)
        assert first == second

    def test_nats_display(self, capsys):
        bits = run_json(capsys, "glb", "0.5 0.5", "0.5 0.5")
        nats = run_json(capsys, "--base", "nats", "glb", "0.5 0.5", "0.5 0.5")
        assert nats["entropy"] == pytest.approx(bits["entropy"] * math.log(2), abs=1e-9)
        assert nats["unit"] == "nats"

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "--format", "text", "bounds", "0.5 0.5", "0.6 0.4")
        assert code == 0
        lines = dict(
            line.split(": ", 1) for line in out.strip().splitlines() if ": " in line
        )
        assert float(lines["h_glb"]) == pytest.approx(1.0, abs=1e-9)

    def test_json_schema_keys(self, capsys):
        checks = {
            ("glb", "0.5 0.5", "0.6 0.4"): {"glb", "entropy", "unit"},
            ("couple", "0.5 0.5", "0.6 0.4"): {
                "order", "rows", "cols", "matrix",
                "joint_entropy", "glb_entropy", "gap", "nnz", "unit",
            },
            ("couple-k", "0.5 0.5", "0.6 0.4"): {
                "k", "dims", "entries", "joint_entropy", "glb_entropy", "bound", "unit",
            },
            ("bounds", "0.5 0.5", "0.6 0.4"): {
                "h_p", "h_q", "h_glb", "mi_upper_improved",
                "mi_upper_classic", "joint_lower_classic", "unit",
            },
            ("distance", "0.5 0.5", "0.6 0.4"): {"lower", "upper", "estimate", "unit"},
            ("oracle", "0.5 0.5", "0.6 0.4"): {
                "opt_entropy", "order", "matrix", "support_size", "unit",
            },
        }
        for argv, keys in checks.items():
            doc = run_json(capsys, *argv)
            assert set(doc) == keys, argv


class TestErrors:
    def test_validation_error_exit_code_and_code_name(self, capsys):
        code, _, err = run(capsys, "glb", "0.5 0.4", "0.5 0.5")
        assert code == 1
        assert err.startswith("BadTotal")

    def test_negative_mass_code(self, capsys):
        code, _, err = run(capsys, "glb", "[-0.5, 1.5]", "0.5 0.5")
        assert code == 1
        assert err.startswith("NegativeMass")

    @pytest.mark.parametrize("vector", ["[true, 0.0]", "[null, 1.0]", '["0.5", 0.5]',
                                        "[[0.5], 0.5]", "[0.5, false]"])
    def test_json_vector_of_non_numbers(self, capsys, vector):
        code, out, err = run(capsys, "glb", vector, "0.5 0.5")
        assert (code, out) == (1, "")
        assert err == "ValidationError: JSON vector must be an array of numbers\n"

    def test_json_vector_of_integers(self, capsys):
        doc = run_json(capsys, "glb", "[1, 0]", "[0, 1.0]")
        assert doc["glb"] == [1.0, 0.0]

    @pytest.mark.parametrize("digits", [401, 5000])
    def test_json_integer_too_large_for_a_float(self, capsys, digits):
        code, out, err = run(capsys, "couple", "[1" + "0" * (digits - 1) + ", 0]", "[1.0]")
        assert (code, out) == (1, "")
        assert err.startswith("ValidationError: ")

    def test_json_vector_nested_too_deeply(self, capsys):
        deep = "[" * 100_000 + "]" * 100_000
        code, out, err = run(capsys, "couple", deep, "[1.0]")
        assert (code, out, err) == (1, "", "ValidationError: JSON vector is nested too deeply\n")

    def test_unparseable_vector(self, capsys):
        code, _, err = run(capsys, "glb", "zero point five", "0.5 0.5")
        assert code == 1
        assert "ValidationError" in err

    @pytest.mark.parametrize("content", [None, b"0.5 \xff0.5\n"], ids=["directory", "not-utf8"])
    def test_unreadable_path(self, capsys, tmp_path, content):
        path = tmp_path
        if content is not None:
            path = tmp_path / "p.txt"
            path.write_bytes(content)
        code, out, err = run(capsys, "couple", str(path), "0.5 0.5")
        assert (code, out) == (1, "")
        assert err.startswith("ValidationError: ") and err.count("\n") == 1

    def test_usage_error_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_usage_error_bad_tolerance_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--tolerance-sum", "7", "glb", "0.5 0.5", "0.5 0.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["oracle", "--cap", "-5", "0.5 0.5", "0.6 0.4"],
        ["couple-k", "--dense", "--dense-cap", "-1", "0.5 0.5", "0.6 0.4"],
    ], ids=["oracle-cap", "couple-k-dense-cap"])
    def test_usage_error_negative_cap(self, capsys, argv):
        flag, value = argv[-4], argv[-3]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: cap must be non-negative: '{value}'" in captured.err

    def test_usage_error_inconsistent_tolerances(self, capsys):
        code, _, err = run(
            capsys,
            "--tolerance-sum", "1e-12", "--tolerance-zero", "1e-9",
            "glb", "0.5 0.5", "0.5 0.5",
        )
        assert code == 2
        assert "usage error" in err


class TestToleranceOverrides:
    def test_flag_loosens_total_check(self, capsys):
        code, _, _ = run(capsys, "--tolerance-sum", "1e-2", "glb", "0.5 0.504", "0.5 0.5")
        assert code == 0

    def test_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("MECOUPLE_TOLERANCE_SUM", "1e-2")
        code, _, _ = run(capsys, "glb", "0.5 0.504", "0.5 0.5")
        assert code == 0

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MECOUPLE_TOLERANCE_SUM", "1e-2")
        code, _, err = run(
            capsys, "--tolerance-sum", "1e-9", "glb", "0.5 0.504", "0.5 0.5"
        )
        assert code == 1
        assert err.startswith("BadTotal")

    def test_env_change_between_calls_takes_effect(self, capsys, monkeypatch):
        argv = ("glb", "0.5 0.504", "0.5 0.5")
        monkeypatch.setenv("MECOUPLE_TOLERANCE_SUM", "1e-2")
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setenv("MECOUPLE_TOLERANCE_SUM", "1e-9")
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("BadTotal")
        monkeypatch.delenv("MECOUPLE_TOLERANCE_SUM")
        assert run(capsys, *argv)[0] == 1
        monkeypatch.setenv("MECOUPLE_TOLERANCE_SUM", "1e-2")
        assert run(capsys, *argv)[0] == 0

    def test_bad_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MECOUPLE_TOLERANCE_SUM", "banana")
        code, _, err = run(capsys, "glb", "0.5 0.5", "0.5 0.5")
        assert code == 2
        assert "usage error" in err

    @pytest.mark.parametrize("value, reason", [
        ("banana", "not a number: 'banana'"),
        ("7", "tolerance must lie in (0, 1): '7'"),
        ("0", "tolerance must lie in (0, 1): '0'"),
        ("nan", "tolerance must lie in (0, 1): 'nan'"),
    ])
    def test_env_and_flag_refuse_the_same_values(self, capsys, monkeypatch, value, reason):
        argv = ("glb", "0.5 0.5", "0.5 0.5")
        monkeypatch.setenv("MECOUPLE_TOLERANCE_ZERO", value)
        assert run(capsys, *argv) == (2, "", f"usage error: MECOUPLE_TOLERANCE_ZERO: {reason}\n")
        monkeypatch.delenv("MECOUPLE_TOLERANCE_ZERO")
        with pytest.raises(SystemExit) as exc:
            main(["--tolerance-zero", value, *argv])
        assert exc.value.code == 2
        assert f"argument --tolerance-zero: {reason}" in capsys.readouterr().err
