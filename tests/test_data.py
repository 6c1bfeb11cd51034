import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

import robustcoreset as rc
from robustcoreset.cli import main as cli_main
from robustcoreset import data
from robustcoreset.data import ParseError, SplitError

from oracles import parse_libsvm_tuples
from table_data import load_table_dataset


def test_parse_simple():
    ds = rc.parse_libsvm("+1 1:0.5 3:2.0\n-1 2:1.0")
    assert ds.n == 2 and ds.d == 4
    assert list(ds.labels) == [1, -1]
    np.testing.assert_array_equal(ds.features[0], [0.5, 0.0, 2.0, 1.0])
    np.testing.assert_array_equal(ds.features[1], [0.0, 1.0, 0.0, 1.0])


def test_parse_skips_blank_lines():
    ds = rc.parse_libsvm("\n+1 1:1\n\n-1 1:2\n")
    assert ds.n == 2


def test_parse_nonincreasing_indices():
    with pytest.raises(ParseError, match="line 1"):
        rc.parse_libsvm("+1 3:1 2:1")


def test_parse_duplicate_index():
    with pytest.raises(ParseError, match="line 2.*duplicate"):
        rc.parse_libsvm("+1 1:1\n-1 2:1 2:3")


def test_parse_token_without_colon():
    with pytest.raises(ParseError, match="line 2: expected index:value"):
        rc.parse_libsvm("+1 1:1\n-1 2:1 3")


def test_parse_zero_index():
    with pytest.raises(ParseError, match="line 3: index 0 is not 1-based"):
        rc.parse_libsvm("+1 1:1\n-1 1:2\n+1 0:1")


def test_parse_bad_value():
    with pytest.raises(ParseError, match="line 1"):
        rc.parse_libsvm("+1 1:abc")


def test_parse_bad_label():
    with pytest.raises(ParseError, match="label"):
        rc.parse_libsvm("spam 1:1")


@pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
def test_parse_nonfinite_label(label, tmp_path):
    # a non-finite label has no place in the order of label values
    text = (f"1 1:0.2\n1 1:0.5\n{label} 1:0.1\n1 1:0.9\n{label} 1:0.3\n"
            f"{label} 1:0.7\n")
    with pytest.raises(ParseError, match=f"line 3: label '{label}'"):
        rc.parse_libsvm(text)
    data = tmp_path / "nonfinite.svm"
    data.write_text(text)
    res = CliRunner().invoke(cli_main, [
        "sweep", "--dataset", str(data), "--folds", "2", "--lambda-rule", "n",
        "--output-dir", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert "not finite" in res.output
    assert not (tmp_path / "out" / "report.csv").exists()
    assert not (tmp_path / "out" / "report.json").exists()


def test_parse_empty_input():
    with pytest.raises(ParseError):
        rc.parse_libsvm("   \n  ")


def test_parse_zero_one_labels():
    ds = rc.parse_libsvm("0 1:1\n1 1:2")
    assert list(ds.labels) == [-1, 1]


def test_parse_other_labels_by_value():
    ds = rc.parse_libsvm("4 1:1\n2 1:2")
    assert list(ds.labels) == [1, -1]
    # labels are told apart by value, not text: of two values the larger
    # is +1, and a lone value is +1 only when it is 1
    for text, labels in (("2 1:1\n2.0 1:2\n4 1:3\n", [-1, -1, 1]),
                         ("9 1:1\n10 1:2\n", [-1, 1]),
                         ("-2 1:1\n-1 1:2\n", [-1, 1]),
                         ("2 1:1\n2 1:2\n", [-1, -1]),
                         ("1.0 1:1\n", [1])):
        assert list(rc.parse_libsvm(text).labels) == labels, text


def test_parse_three_labels_rejected():
    with pytest.raises(ParseError):
        rc.parse_libsvm("1 1:1\n2 1:2\n3 1:3")


def test_round_trip_bit_exact():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((12, 6))
    X[rng.random((12, 6)) < 0.4] = 0.0
    y = rng.choice([-1, 1], size=12)
    y[0], y[1] = 1, -1
    ds = rc.Dataset.from_arrays(X, y)
    again = rc.parse_libsvm(rc.to_libsvm(ds))
    assert again.features.shape == ds.features.shape
    assert np.array_equal(again.features, ds.features)
    assert np.array_equal(again.labels, ds.labels)


def test_round_trip_keeps_signed_zeros_and_a_last_zero_column():
    # -0.0 is written and +0.0 is not; a last column no row stores is
    # written once, so the width survives
    ds = rc.Dataset.from_arrays([[1, -0.0, 0], [2, 3, 0]], [1, -1])
    text = rc.to_libsvm(ds)
    assert text == "+1 1:1.0 2:-0.0 3:0.0\n-1 1:2.0 2:3.0\n"
    again = rc.parse_libsvm(text)
    assert again.features.shape == (2, 4)
    assert again.features.tobytes() == ds.features.tobytes()
    assert np.signbit(again.features[0, 1])
    assert np.array_equal(again.labels, ds.labels)
    # a dataset with no feature column has nothing to write
    assert rc.to_libsvm(rc.Dataset.from_arrays(np.zeros((2, 0)),
                                               [1, -1])) == "+1\n-1\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "-1e999"])
def test_parse_rejects_a_nonfinite_value_with_its_line(value):
    # rejected by the reader, which knows the line; Dataset's check does not
    with pytest.raises(ParseError, match=f"line 2: value '{value}' is not finite"):
        rc.parse_libsvm(f"+1 1:0.5\n-1 1:1 2:{value}\n")


# int() and float() read digit separators and any Unicode digits; the
# format's numbers are plain ASCII, as LIBSVM's own reader (strtol and
# strtod) takes them
UNPLAIN = ["1_0", "٣", "１", "1٠", "1.5٠"]


@pytest.mark.parametrize("number", UNPLAIN)
def test_parse_rejects_digits_only_python_reads(number):
    with pytest.raises(ParseError, match=f"line 1: bad token '{number}:5'"):
        rc.parse_libsvm(f"+1 {number}:5\n-1 1:1\n")
    with pytest.raises(ParseError, match=f"line 2: bad token '2:{number}'"):
        rc.parse_libsvm(f"+1 1:5\n-1 1:1 2:{number}\n")
    with pytest.raises(ParseError, match=f"line 2: bad label '{number}'"):
        rc.parse_libsvm(f"0 1:5\n{number} 1:1\n")


def test_parse_index_sign_and_range():
    # a leading sign is plain decimal and stays accepted
    ds = rc.parse_libsvm("+1 +3:1\n-1 1:1\n")
    np.testing.assert_array_equal(ds.features[0], [0.0, 0.0, 1.0, 1.0])
    with pytest.raises(ParseError, match="line 2: index -1 is not 1-based"):
        rc.parse_libsvm("+1 1:1\n-1 -1:1\n")
    with pytest.raises(ParseError, match=f"line 1: index {2**63} is too large"):
        rc.parse_libsvm(f"+1 {2**63}:1\n-1 1:1\n")


# every malformed text the tests of this file use (but the index too large
# for the reference's dense matrix); the reader must give each one the
# reference reader's message
MALFORMED = [
    "+1 3:1 2:1",
    "+1 1:1\n-1 2:1 2:3",
    "+1 1:1\n-1 2:1 3",
    "+1 1:1\n-1 1:2\n+1 0:1",
    "+1 1:abc",
    "spam 1:1",
    *(f"1 1:0.2\n1 1:0.5\n{label} 1:0.1\n1 1:0.9\n{label} 1:0.3\n{label} 1:0.7\n"
      for label in ("nan", "inf", "-inf")),
    "   \n  ",
    "1 1:1\n2 1:2\n3 1:3",
    *(f"+1 1:0.5\n-1 1:1 2:{value}\n" for value in ("nan", "inf", "-inf", "1e999", "-1e999")),
    *(text for number in UNPLAIN for text in (
        f"+1 {number}:5\n-1 1:1\n", f"+1 1:5\n-1 1:1 2:{number}\n",
        f"0 1:5\n{number} 1:1\n")),
    "+1 1:1\n-1 -1:1\n",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_parse_errors_match_the_tuple_reader(text):
    with pytest.raises(ParseError) as expected:
        parse_libsvm_tuples(text)
    with pytest.raises(ParseError) as got:
        rc.parse_libsvm(text)
    assert str(got.value) == str(expected.value)


def _random_libsvm_text(rng):
    """A valid LIBSVM text with blank lines, label-only rows, mixed line
    endings and value spellings, whose largest index appears only on its
    last row."""
    labels = [("-1", "+1", "-1.0", "1"), ("0", "1", "0.0", "1e0"),
              ("1", "2", "1.0", "2.0")][rng.integers(3)]
    n, d = int(rng.integers(1, 25)), int(rng.integers(1, 12))
    spellings = (lambda v: repr(v), lambda v: f"{v:.3e}", lambda v: f"{v:.2E}",
                 lambda v: str(int(v * 10)), lambda v: "-0.0", lambda v: f"{v:g}")
    lines = []
    for i in range(n):
        top = d if i == n - 1 else int(rng.integers(0, d))
        idx = sorted(rng.choice(np.arange(1, top + 1), size=int(rng.integers(0, top + 1)),
                                replace=False)) if top else []
        if i == n - 1 and d not in idx:
            idx.append(d)
        fields = [labels[rng.integers(4)]]
        for j in idx:
            value = float(rng.standard_normal() * 10.0 ** rng.integers(-8, 9))
            fields.append(f"{j}:{spellings[rng.integers(len(spellings))](value)}")
        lines.append(("\t" if rng.random() < 0.2 else " ").join(fields))
        if rng.random() < 0.2:
            lines.append(("", "  ", "\t")[rng.integers(3)])
    ends = ("\n", "\r\n", "\r")
    return "".join(line + ends[rng.integers(3)] for line in lines)


def test_parse_matches_the_tuple_reader():
    rng = np.random.default_rng(2024)
    for case in range(200):
        text = _random_libsvm_text(rng)
        X, y = parse_libsvm_tuples(text)
        ds = rc.parse_libsvm(text)
        assert ds.features.tobytes() == X.tobytes(), case
        assert ds.features.shape == X.shape, case
        assert np.array_equal(ds.labels, y), case
        # the round trip gives back the matrix, shape and signed zeros
        # included, and both readers agree on its text
        text = rc.to_libsvm(ds)
        again, (X, y) = rc.parse_libsvm(text), parse_libsvm_tuples(text)
        assert again.features.tobytes() == X.tobytes(), case
        assert again.features.tobytes() == ds.features.tobytes(), case
        assert again.features.shape == ds.features.shape, case
        assert np.array_equal(again.labels, y), case


def test_parse_peak_memory_per_stored_entry():
    # a dense 2,000 x 64 text: the reader may hold the split lines (about
    # len(text)) and at most 32 bytes per stored entry on top, the dense
    # matrix included; with an (index, value) tuple per entry it peaked at
    # about 112 bytes per entry
    rng = np.random.default_rng(5)
    n, d = 2000, 64
    ds = rc.Dataset.from_arrays(rng.standard_normal((n, d)), np.resize([1, -1], n))
    text = rc.to_libsvm(ds)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        parsed = rc.parse_libsvm(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert parsed.features.tobytes() == ds.features.tobytes()
    assert peak <= len(text) + 32 * n * d, (peak, len(text))


def test_crlf_and_blank_lines_give_the_same_report(tmp_path):
    runner = CliRunner()
    lf = tmp_path / "t.svm"
    res = runner.invoke(cli_main, ["synth", "--n", "60", "--seed", "1", "--out", str(lf)])
    assert res.exit_code == 0, res.output
    crlf = tmp_path / "crlf.svm"
    crlf.write_bytes(b"\r\n" + lf.read_bytes().replace(b"\n", b"\r\n\r\n"))
    for path in (lf, crlf):
        res = runner.invoke(cli_main, [
            "sweep", "--dataset", str(path), "--folds", "2", "--lambda-rule", "n",
            "--removal-grid", "0.1", "--output-dir", str(tmp_path / path.stem)])
        assert res.exit_code == 0, res.output
    assert ((tmp_path / "t" / "report.csv").read_bytes()
            == (tmp_path / "crlf" / "report.csv").read_bytes())


def test_dataset_rejects_bad_labels():
    with pytest.raises(ValueError):
        rc.Dataset(np.ones((2, 2)), np.array([1, 2]))


def test_dataset_rejects_nonfinite():
    with pytest.raises(ValueError):
        rc.Dataset(np.array([[np.inf, 1.0]]), np.array([1]))


def test_cv_split_sizes_and_partition():
    ds = rc.gaussian_task(10, 3, seed=0)
    plan = rc.cv_split(ds, folds=5, seed=0)
    seen = []
    for k in range(5):
        va = plan.val_indices(k)
        assert va.size == 2
        seen.extend(va.tolist())
        assert set(va).isdisjoint(plan.train_indices(k))
    assert sorted(seen) == list(range(10))


def test_cv_split_deterministic():
    ds = rc.gaussian_task(23, 3, seed=1)
    p1 = rc.cv_split(ds, folds=5, seed=42)
    p2 = rc.cv_split(ds, folds=5, seed=42)
    assert np.array_equal(p1.assignments, p2.assignments)


def test_cv_split_paper_ratio():
    ds = rc.gaussian_task(690, 5, seed=2, n_plus=307)
    plan = rc.cv_split(ds, folds=5, seed=0)
    assert plan.train_indices(0).size == 552
    assert plan.val_indices(0).size == 138


def test_cv_split_keeps_classes_in_training():
    ds = rc.gaussian_task(25, 3, seed=5, n_plus=3)
    plan = rc.cv_split(ds, folds=5, seed=0)
    for k in range(5):
        y_tr = ds.labels[plan.train_indices(k)]
        assert (y_tr == 1).any() and (y_tr == -1).any()


def test_cv_split_degenerate_raises(monkeypatch):
    # a lone instance of a class leaves the training part of the fold that
    # validates on it without that class, so no split exists: a bad input
    X = np.arange(10).reshape(5, 2)
    ds = rc.Dataset.from_arrays(X, [1, -1, -1, -1, -1])
    with pytest.raises(ValueError, match=r"class \+1 has 1 instance"):
        rc.cv_split(ds, folds=5, seed=0)
    # two of each class admit a split; only the retry cap can miss it
    ds = rc.Dataset.from_arrays(X[:4], [1, 1, -1, -1])
    monkeypatch.setattr(data, "_MAX_SPLIT_ATTEMPTS", 0)
    with pytest.raises(SplitError):
        rc.cv_split(ds, folds=2, seed=0)


def test_shift_radius_values():
    assert rc.shift_radius(307, 1.05) == pytest.approx(math.sqrt(307) * 0.05)
    assert rc.shift_radius(307, 1.05) == pytest.approx(0.87607, abs=1e-5)
    assert rc.shift_radius(12345, 1.0) == 0.0
    assert rc.shift_radius(4, 1.5) == pytest.approx(1.0)


def test_shift_radius_monotone():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n1, n2 = sorted(rng.integers(1, 500, size=2))
        a1, a2 = sorted(rng.uniform(1.0, 2.0, size=2))
        assert rc.shift_radius(n1, a1) <= rc.shift_radius(n2, a1) + 1e-15
        assert rc.shift_radius(n1, a1) <= rc.shift_radius(n1, a2) + 1e-15


def test_shift_radius_validates():
    with pytest.raises(ValueError):
        rc.shift_radius(0, 1.1)
    with pytest.raises(ValueError):
        rc.shift_radius(5, -0.1)


def test_gaussian_task_shape():
    ds = rc.gaussian_task(50, 4, seed=9, n_plus=20)
    assert (ds.n, ds.d, ds.n_plus) == (50, 5, 20)
    np.testing.assert_array_equal(ds.features[:, -1], 1.0)


def test_gaussian_task_needs_a_feature():
    with pytest.raises(ValueError, match="d must be at least 1"):
        rc.gaussian_task(50, 0)


def test_table_dataset_shapes():
    ds, source = load_table_dataset("australian")
    assert (ds.n, ds.n_plus, ds.d) == (690, 307, 15)
    ds, _ = load_table_dataset("heart")
    assert (ds.n, ds.n_plus, ds.d) == (270, 120, 14)
    ds, _ = load_table_dataset("breast-cancer")
    assert (ds.n, ds.n_plus, ds.d) == (683, 239, 11)
