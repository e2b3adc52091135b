"""Dataset loading, standardization, and summaries; load_csv against the
listwise-deletion row loop it ran before its np.loadtxt fast path."""

import csv
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathtrek import data
from pathtrek.data import Dataset, load_csv, standardize, summarize, write_csv
from pathtrek.errors import DataWarning, ParseError, TooFewRows, ZeroVariance

from conftest import OBSERVED_R, exact_corr_scores


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_clean_file(tmp_path):
    lines = ["a,b"] + [f"{i},{i * 2}" for i in range(10)]
    d = load_csv(write(tmp_path, "clean.csv", "\n".join(lines) + "\n"))
    assert d.variables == ("a", "b")
    assert d.n == 10
    assert d.k == 2
    assert d.dropped == 0


def test_load_full_sized_file(tmp_path):
    scores = exact_corr_scores(OBSERVED_R, 240, seed=555)
    path = tmp_path / "scores.csv"
    write_csv(Dataset(("X1", "X2", "X3", "X4", "Y"), scores), path)
    d = load_csv(path)
    assert (d.n, d.k) == (240, 5)
    assert np.allclose(d.rows, scores)


def test_load_drops_bad_rows_with_warning(tmp_path):
    rows = [f"{i},{i}" for i in range(8)]
    rows.insert(3, "4,")        # missing cell
    rows.insert(6, "oops,1")    # unparseable cell
    path = write(tmp_path, "holes.csv", "a,b\n" + "\n".join(rows) + "\n")
    with pytest.warns(DataWarning, match="dropped 2 rows"):
        d = load_csv(path)
    assert d.n == 8
    assert d.dropped == 2


def test_load_duplicate_header(tmp_path):
    path = write(tmp_path, "dup.csv", "X1,X1\n1,2\n3,4\n5,6\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_csv(path)


def test_load_blank_header_name(tmp_path):
    path = write(tmp_path, "blank.csv", "a,\n1,2\n3,4\n5,6\n")
    with pytest.raises(ParseError):
        load_csv(path)


def test_load_too_few_rows(tmp_path):
    path = write(tmp_path, "tiny.csv", "a,b\n1,2\n3,4\n")
    with pytest.raises(TooFewRows):
        load_csv(path)


def test_load_crlf(tmp_path):
    path = write(tmp_path, "crlf.csv", "a,b\r\n1,2\r\n3,4\r\n5,6\r\n")
    assert load_csv(path).n == 3


def test_dataset_immutable():
    d = Dataset(("a",), np.array([[1.0], [2.0], [3.0]]))
    with pytest.raises(ValueError):
        d.rows[0, 0] = 9.0


def test_standardize_symmetric_column():
    d = Dataset(("a",), np.array([[1.0], [2.0], [3.0]]))
    z = standardize(d)
    assert z.column("a").tolist() == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)


def test_standardize_zero_variance():
    d = Dataset(("a", "b"), np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]))
    with pytest.raises(ZeroVariance) as exc:
        standardize(d)
    assert exc.value.name == "b"


def test_standardize_moments_and_idempotence():
    gen = np.random.default_rng(4)
    d = Dataset(tuple("abcd"), gen.normal(3.0, 9.0, (40, 4)))
    z = standardize(d)
    assert np.abs(z.rows.mean(axis=0)).max() < 1e-12
    assert np.abs(z.rows.std(axis=0, ddof=1) - 1.0).max() < 1e-12
    zz = standardize(z)
    assert np.abs(zz.rows - z.rows).max() < 1e-12


def test_standardize_preserves_correlations():
    gen = np.random.default_rng(11)
    d = Dataset(tuple("abc"), gen.normal(0.0, 4.0, (60, 3)) + gen.uniform(-5, 5, 3))
    before = np.corrcoef(d.rows, rowvar=False)
    after = np.corrcoef(standardize(d).rows, rowvar=False)
    assert np.abs(before - after).max() < 1e-12


def test_summarize_basic():
    d = Dataset(("a", "b"), np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]]))
    s = summarize(d)
    assert [v.name for v in s] == ["a", "b"]
    assert s[0].mean == 2.0
    assert s[0].sd == pytest.approx(1.0)
    assert (s[0].minimum, s[0].maximum) == (1.0, 3.0)
    assert not s[0].flag_zero_variance
    assert s[1].flag_zero_variance


def test_summary_consistent_with_load(tmp_path):
    rows = ["h1,h2"] + [f"{i},{10 - i}" for i in range(10)] + ["x,y"]
    with pytest.warns(DataWarning):
        d = load_csv(write(tmp_path, "s.csv", "\n".join(rows) + "\n"))
    assert d.n == 10
    assert all(v.minimum <= v.mean <= v.maximum for v in summarize(d))


def test_csv_roundtrip(tmp_path):
    gen = np.random.default_rng(2)
    d = Dataset(("u", "v"), gen.normal(size=(12, 2)))
    path = tmp_path / "rt.csv"
    write_csv(d, path)
    back = load_csv(path)
    assert back.variables == d.variables
    assert np.array_equal(back.rows, d.rows)


# ---------------------------------------------------------------------------
# The fast path against the reference row loop.

def reference_load(path):
    """load_csv as one csv-module loop: float() per cell, listwise deletion."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        names = [h.strip() for h in header]
        if any(not n for n in names):
            raise ParseError(f"{path}: blank column name in header")
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ParseError(f"{path}: duplicate column names {dupes}")
        kept, dropped = [], 0
        for cells in reader:
            if not cells:
                continue
            if len(cells) != len(names):
                dropped += 1
                continue
            try:
                row = [float(c) for c in cells]
            except ValueError:
                dropped += 1
                continue
            if not all(math.isfinite(v) for v in row):
                dropped += 1
                continue
            kept.append(row)
    if len(kept) < 3:
        raise TooFewRows(
            f"{path}: only {len(kept)} usable rows after dropping {dropped}"
        )
    if dropped:
        warnings.warn(
            f"{path}: dropped {dropped} rows with missing or unparseable cells",
            DataWarning,
        )
    return tuple(names), np.array(kept, dtype=np.float64), dropped


def outcome(load, path):
    """(result or (error type, message), [(warning type, message), ...])."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load(path)
        except Exception as exc:  # every error must match, whatever its type
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


CLEAN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.builds(lambda sign, digits, exp: sign + digits + exp,
              st.sampled_from(["", "+", "-"]),
              st.sampled_from(["0", "1.", "42", "007", ".5", "3.125"]),
              st.sampled_from(["", "e5", "E-3", "e+07", "e308", "e-320"])),
)
ODD_CELLS = st.sampled_from([
    "nan", "NaN", "-nan", "inf", "-inf", "+Inf", "Infinity", "-Infinity",
    "1e500", "1_0", "1__0", "_1", "0x10", "0x1p3", '"1.5"', '"1,5"', '"1',
    "", " ", "\t", "+", ".", "1 2", "1e", "e5", "--1", "\u0661\u0662", "1\x00",
])
PADDING = st.sampled_from(["", "", "", " ", "  ", "\t", "\x0c", "\xa0", "\x85", "\u2028"])
# np.loadtxt strips these from a cell as whitespace; float() does not
SEPARATORS = st.sampled_from(["\x1c", "\x1d", "\x1e", "\x1f"])


@st.composite
def csv_texts(draw):
    """A header of k names and up to 10 lines; half the bodies have nothing to drop."""
    k = draw(st.integers(1, 4))
    pad = st.one_of(PADDING, SEPARATORS) if draw(st.integers(0, 3)) == 0 else PADDING
    cell = st.builds(lambda left, c, right: left + c + right, pad, CLEAN_CELLS, pad)
    shapes = ["row", "row", "row", "blank"]
    if draw(st.booleans()):
        cell = st.one_of(cell, ODD_CELLS)
        shapes += ["short", "long", "trailing comma", "spaces"]
    lines = [",".join(f"v{j}" for j in range(k))]
    for _ in range(draw(st.integers(0, 10))):
        shape = draw(st.sampled_from(shapes))
        width = {"short": k - 1, "long": k + 1}.get(shape, k)
        line = ",".join(draw(st.lists(cell, min_size=width, max_size=width)))
        if shape == "trailing comma":
            line += ","
        elif shape == "blank":
            line = ""
        elif shape == "spaces":
            line = draw(st.sampled_from([" ", "\t", "  \t "]))
        lines.append(line)
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@given(csv_texts())
@example("v0,v1\n1,2,3\n4,5,6\n7,8,9\n")  # every row long: np.loadtxt reads 3 columns
@example("v0\n1\n2\n3\x1c\n4\n")  # float() rejects "3\x1c"
@example("v0\n1\n \n2\r\n\r\n3\r4")
@settings(max_examples=400, deadline=None)
def test_load_matches_reference_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("diff") / "body.csv"
    path.write_bytes(text.encode("utf-8"))
    got, got_warnings = outcome(load_csv, path)
    want, want_warnings = outcome(reference_load, path)
    assert got_warnings == want_warnings
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    names, rows, dropped = want
    assert got.variables == names
    assert got.rows.tobytes() == rows.tobytes()
    assert got.dropped == dropped


def test_clean_file_never_reaches_row_loop(tmp_path, monkeypatch):
    gen = np.random.default_rng(8)
    d = Dataset(tuple(f"V{j}" for j in range(8)), gen.normal(0.0, 30.0, (20000, 8)))
    path = tmp_path / "clean.csv"
    write_csv(d, path)

    def no_loop(*args):
        raise AssertionError("clean file sent to the row loop")

    monkeypatch.setattr(data, "_parse_listwise", no_loop)
    back = load_csv(path)
    assert back.dropped == 0
    assert np.array_equal(back.rows, d.rows)


def test_header_only_file_warns_nothing_from_numpy(tmp_path):
    path = write(tmp_path, "header.csv", "a,b\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TooFewRows, match="only 0 usable rows after dropping 0"):
            load_csv(path)
    assert caught == []


# ---------------------------------------------------------------------------
# The block writer against the csv.writer pass it replaced.

def reference_write_csv(d, path):
    """write_csv as one csv.writer pass, one row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(d.variables)
        writer.writerows(row.tolist() for row in d.rows)


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -1e-310,
               1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308, 1.0, 0.1, 1e16]


@st.composite
def datasets(draw):
    """k = 1..4 named columns (names that need quoting included), n = 3..30 rows."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(3, 30))
    names = draw(st.lists(st.sampled_from(["a", "b", "x y", "c,d", 'q"t', "é"]),
                          min_size=k, max_size=k, unique=True))
    value = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_VALUES)
    cells = draw(st.lists(value, min_size=n * k, max_size=n * k))
    return Dataset(tuple(names), np.array(cells, dtype=np.float64).reshape(n, k))


@given(datasets(), st.integers(1, 24))
@settings(max_examples=300, deadline=None)
def test_write_csv_matches_csv_writer(tmp_path_factory, d, block_cells):
    folder = tmp_path_factory.mktemp("write")
    with mock.patch.object(data, "WRITE_BLOCK_CELLS", block_cells):
        write_csv(d, folder / "got.csv")
    reference_write_csv(d, folder / "want.csv")
    assert (folder / "got.csv").read_bytes() == (folder / "want.csv").read_bytes()


@pytest.mark.parametrize("k", [1, 3])
def test_write_csv_rows_past_one_block(tmp_path, k):
    n = 2 * (data.WRITE_BLOCK_CELLS // k) + 5
    rows = np.random.default_rng(k).normal(0.0, 1e3, (n, k))
    rows[::97] = np.resize(np.array(EDGE_VALUES), rows[::97].shape)
    d = Dataset(tuple(f"V{j}" for j in range(k)), rows)
    write_csv(d, tmp_path / "got.csv")
    reference_write_csv(d, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert np.array_equal(load_csv(tmp_path / "got.csv").rows, rows)
