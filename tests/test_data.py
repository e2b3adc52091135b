"""Dataset loading, standardization, and summaries; load_csv against the
listwise-deletion row loop it ran before its np.loadtxt fast path."""

import copy
import csv
import hashlib
import math
import pickle
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathtrek import data
from pathtrek.data import Dataset, load_csv, summarize, write_csv
from pathtrek.errors import DataWarning, OutOfRange, ParseError, TooFewRows, ZeroVariance

from conftest import DATA_DIR, OBSERVED_R, exact_corr_scores


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


def test_load_duplicate_header(tmp_path):
    path = write(tmp_path, "dup.csv", "X1,X1\n1,2\n3,4\n5,6\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_csv(path)


def test_load_blank_header_name(tmp_path):
    path = write(tmp_path, "blank.csv", "a,\n1,2\n3,4\n5,6\n")
    with pytest.raises(ParseError):
        load_csv(path)


def test_load_empty_header_line(tmp_path):
    # a blank first line names no columns: a header error, not "0 usable rows"
    path = write(tmp_path, "noheader.csv", "\n1,2\n3,4\n5,6\n7,8\n")
    with pytest.raises(ParseError, match="line 1: empty header"):
        load_csv(path)


@pytest.mark.parametrize("text,message", [
    ("", "empty file"),
    ("x" * 200_000 + ",b\n1,2\n3,4\n5,6\n", "line 1: field larger than field limit (131072)"),
], ids=["empty-file", "header-past-field-limit"])
def test_load_rejects_unreadable_header(tmp_path, text, message):
    path = write(tmp_path, "bad.csv", text)
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert str(exc.value) == f"{path}: {message}"


def test_load_too_few_rows(tmp_path):
    path = write(tmp_path, "tiny.csv", "a,b\n1,2\n3,4\n")
    with pytest.raises(TooFewRows):
        load_csv(path)


def test_load_crlf(tmp_path):
    path = write(tmp_path, "crlf.csv", "a,b\r\n1,2\r\n3,4\r\n5,6\r\n")
    assert load_csv(path).n == 3


def test_load_names_the_file_offset_of_invalid_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    head = b"a,b\n" + b"1.5,2.5\n" * 3000
    path.write_bytes(head + b"3,\xff\n")
    with pytest.raises(UnicodeDecodeError) as exc:
        load_csv(path)
    assert exc.value.start == len(head) + 2


def test_load_skips_a_byte_order_mark(tmp_path):
    plain = DATA_DIR / "sample_scores.csv"
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    with_bom, without = load_csv(path), load_csv(plain)
    assert with_bom.variables == without.variables == ("X1", "X2", "X3", "X4", "Y")
    assert np.array_equal(with_bom.rows, without.rows)
    assert with_bom.digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_load_names_the_file_offset_of_invalid_utf8_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfab\xff")
    with pytest.raises(UnicodeDecodeError) as exc:
        load_csv(path)
    assert exc.value.start == 5


def test_load_digest_is_the_sha256_of_the_parsed_bytes(tmp_path):
    path = write(tmp_path, "digest.csv", "a,b\r\n1,2\r\n3,4\r\n5,6\r\n")
    d = load_csv(path)
    assert d.digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert Dataset(d.variables, d.rows).digest is None
    # the digest takes no part in equality
    assert d == Dataset(d.variables, d.rows, digest="other")
    assert d != Dataset(d.variables, d.rows[::-1])
    assert d != Dataset(("a", "c"), d.rows)


def test_dataset_equality_compares_variables_and_rows():
    rows = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])
    d = Dataset(("a", "b"), rows)
    assert d == Dataset(["a", "b"], rows.tolist())
    assert not d != Dataset(("a", "b"), rows)
    assert d != Dataset(("a", "b"), rows + np.eye(3, 2) * 1e-12)
    assert d != Dataset(("a", "b"), np.vstack([rows, rows]))  # other shape
    assert d != "d"
    with pytest.raises(TypeError):
        hash(d)


def test_dataset_compared_with_an_array_is_a_bool():
    # unequal, since an array is not a Dataset; numpy must not broadcast
    d = Dataset(("a", "b"), np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]]))
    assert (d != d.rows) is True
    assert (d == d.rows) is False
    assert (d.rows != d) is True
    assert (d.rows == d) is False


@pytest.mark.parametrize("variables,rows,error,message", [
    (("a", "a"), np.ones((3, 2)), ParseError, "variable names must be unique and nonempty"),
    (("a", ""), np.ones((3, 2)), ParseError, "variable names must be unique and nonempty"),
    ((), np.empty((5, 0)), ParseError, "variable names must be unique and nonempty"),
    (("a", "b"), np.ones((3, 3)), ParseError, "rows must be a 2-D block"),
    (("a",), np.ones(3), ParseError, "rows must be a 2-D block"),
    (("a", "b"), [[1.0, 2.0], [3.0, math.inf], [5.0, 6.0]], ParseError,
     "all observations must be finite"),
    (("a", "b"), np.ones((2, 2)), TooFewRows, "need at least 3 rows, got 2"),
], ids=["duplicate-name", "blank-name", "no-names", "wrong-width", "one-dimensional",
        "non-finite", "two-rows"])
def test_dataset_rejects(variables, rows, error, message):
    with pytest.raises(error, match=message):
        Dataset(variables, rows)


def test_column_of_an_unknown_name_is_a_key_error():
    with pytest.raises(KeyError):
        Dataset(("a",), np.array([[1.0], [2.0], [3.0]])).column("z")


def test_dataset_immutable():
    d = Dataset(("a",), np.array([[1.0], [2.0], [3.0]]))
    with pytest.raises(ValueError):
        d.rows[0, 0] = 9.0


def test_standardize_symmetric_column():
    d = Dataset(("a",), np.array([[1.0], [2.0], [3.0]]))
    assert d._z[:, 0].tolist() == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)


def test_standardize_zero_variance():
    d = Dataset(("a", "b"), np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]))
    with pytest.raises(ZeroVariance) as exc:
        d._z
    assert exc.value.name == "b"
    with pytest.raises(ZeroVariance):
        d._r


OVERFLOWING = [
    [1e308, -1e308] * 5,  # finite mean, sd overflows
    [1.7e308, 1.6e308, 1.5e308, 1.7e308, 1.6e308],  # the sum behind the mean overflows
]


@pytest.mark.parametrize("column", OVERFLOWING)
def test_standardize_overflowing_column(column):
    rows = np.column_stack([np.arange(len(column), dtype=float), column])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings stay silent
        with pytest.raises(OutOfRange, match="variable 'b': mean or sd overflows"):
            Dataset(("a", "b"), rows)._z


def test_standardize_moments_and_idempotence():
    gen = np.random.default_rng(4)
    d = Dataset(tuple("abcd"), gen.normal(3.0, 9.0, (40, 4)))
    z = d._z
    assert np.abs(z.mean(axis=0)).max() < 1e-12
    assert np.abs(z.std(axis=0, ddof=1) - 1.0).max() < 1e-12
    assert np.array_equal(d._sds, d.rows.std(axis=0, ddof=1))
    zz = Dataset(d.variables, z)._z
    assert np.abs(zz - z).max() < 1e-12


def numpy_standardization(rows):
    """The sds and z-scores as numpy's own mean and std give them, silently."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        means, sds = rows.mean(axis=0), rows.std(axis=0, ddof=1)
        return sds, (rows - means) / sds


@given(st.integers(0, 2**32 - 1), st.integers(3, 400), st.integers(1, 6),
       st.sampled_from(["normal", "offset", "rounded", "wide"]))
@settings(max_examples=200, deadline=None)
def test_standardization_has_numpys_bits(seed, n, k, kind):
    gen = np.random.default_rng(seed)
    rows = gen.normal(size=(n, k))
    if kind == "offset":
        rows = rows * 1e-3 + gen.uniform(-1e6, 1e6, k)
    elif kind == "rounded":
        rows = np.round(rows * 2.0)  # a constant column now and then
    elif kind == "wide":
        rows = np.exp(rows * 20.0)
    d = Dataset(tuple(f"v{j}" for j in range(k)), rows)
    sds, z = numpy_standardization(d.rows)
    assert d._sds.tobytes() == sds.tobytes()
    if (sds < 1e-12).any():
        with pytest.raises(ZeroVariance):
            d._z
    else:
        assert d._z.tobytes() == z.tobytes()


@pytest.mark.parametrize("column", [*OVERFLOWING, [4.0] * 6, [0.1, 0.1, 0.1]])
def test_sds_are_numpys_when_the_z_scores_raise(column):
    rows = np.column_stack([np.arange(len(column), dtype=float), column])
    d = Dataset(("a", "b"), rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((OutOfRange, ZeroVariance)):
            d._z
        assert d._sds.tobytes() == numpy_standardization(d.rows)[0].tobytes()
    assert "_z" not in d.__dict__


def test_standardize_preserves_correlations():
    gen = np.random.default_rng(11)
    d = Dataset(tuple("abc"), gen.normal(0.0, 4.0, (60, 3)) + gen.uniform(-5, 5, 3))
    before = np.corrcoef(d.rows, rowvar=False)
    assert np.abs(np.corrcoef(d._z, rowvar=False) - before).max() < 1e-12
    assert np.abs(d._r - before).max() < 1e-12


def test_standardization_is_kept_and_read_only():
    d = Dataset(tuple("ab"), np.random.default_rng(12).normal(size=(20, 2)))
    for name in ("_sds", "_z", "_r"):
        block = getattr(d, name)
        assert getattr(d, name) is block
        with pytest.raises(ValueError):
            block[0] = 9.0


@pytest.mark.parametrize("read", [False, True], ids=["fresh", "block-read"])
def test_dataset_identity_does_not_depend_on_its_block(read):
    rows = np.random.default_rng(13).normal(size=(10, 3))
    fresh, d = Dataset(tuple("abc"), rows, digest="x"), Dataset(tuple("abc"), rows, digest="x")
    if read:
        d._r, d._sds  # builds _standardized, _z, _r and _sds
        assert {"_standardized", "_sds", "_z", "_r"} <= d.__dict__.keys()
    assert d == fresh and fresh == d
    assert repr(d) == repr(fresh)
    assert pickle.dumps(d) == pickle.dumps(fresh)
    for other in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert other == fresh
        assert repr(other) == repr(fresh)
        assert other.digest == "x"
        assert np.array_equal(other._r, fresh._r)


def test_summarize_basic():
    d = Dataset(("a", "b"), np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]]))
    s = summarize(d)
    assert [v.name for v in s] == ["a", "b"]
    assert s[0].mean == 2.0
    assert s[0].sd == pytest.approx(1.0)
    assert (s[0].minimum, s[0].maximum) == (1.0, 3.0)
    assert s[1].sd == 0.0


def test_summarize_a_constant_column_after_its_z_scores_raised():
    d = Dataset(("a", "b"), np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]]))
    with pytest.raises(ZeroVariance):
        d._z
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = summarize(d)
    assert (s[1].mean, s[1].sd, s[1].minimum, s[1].maximum) == (7.0, 0.0, 7.0, 7.0)


@pytest.mark.parametrize("column", OVERFLOWING)
def test_summarize_an_overflowing_column_is_silent(column):
    rows = np.column_stack([np.arange(len(column), dtype=float), column])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = summarize(Dataset(("a", "b"), rows))
    assert not math.isfinite(s[1].mean) or not math.isfinite(s[1].sd)
    assert (s[1].minimum, s[1].maximum) == (min(column), max(column))


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
        if not names:
            raise ParseError(f"{path}: line 1: empty header, no column names")
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
    return tuple(names), np.array(kept, dtype=np.float64)


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
@example('"v\r\n0",v1\r1,2\n3,4\r\n5,6')  # a header record over two lines
@example('v0,"v\r1"\r\n1,2\r3,4\r5,6\r')  # a lone CR inside a quoted name
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
    names, rows = want
    assert got.digest == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert got.variables == names
    assert got.rows.tobytes() == rows.tobytes()


def test_clean_file_never_reaches_row_loop(tmp_path, monkeypatch):
    gen = np.random.default_rng(8)
    d = Dataset(tuple(f"V{j}" for j in range(8)), gen.normal(0.0, 30.0, (20000, 8)))
    path = tmp_path / "clean.csv"
    write_csv(d, path)

    def no_loop(*args):
        raise AssertionError("clean file sent to the row loop")

    monkeypatch.setattr(data, "_parse_listwise", no_loop)
    back = load_csv(path)
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


# ---------------------------------------------------------------------------
# The vectorized formatter against repr, on seeded hard cases.

def decimal_ties(rng, digits, count):
    """Doubles a / 2^j whose exact decimal expansion has `digits` significant
    digits, the last a 5: each lies halfway between two (digits-1)-digit strings."""
    out = []
    for j in range(4, 24):
        low, high = -(-10 ** (digits - 1) // 5 ** j), min(10 ** digits // 5 ** j, 1 << 53)
        if low < high:
            a = rng.integers(low, high, count) | 1
            out.append(np.ldexp(a.astype(np.float64), -j))
    return np.concatenate(out)


def formatter_cases():
    """Over 10^6 seeded doubles that stress the shortest-digits formatter."""
    rng = np.random.default_rng(20261019)
    tens = np.array([float(f"1e{e}") for e in range(-5, 17)])
    near_tens = (tens.view(np.int64)[:, None] + np.arange(-40, 41)).view(np.float64)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    subnormals = np.ldexp(rng.uniform(0.0, 1.0, 2000), -1022)
    return np.concatenate([
        rng.normal(0.0, 1.0, 320_000),
        rng.normal(0.0, 1.0, 200_000) * 10.0 ** rng.integers(-4, 14, 200_000),
        rng.choice([-1.0, 1.0], 300_000)
        * np.exp(rng.uniform(np.log(1e-6), np.log(1e17), 300_000)),
        *(np.round(rng.normal(0.0, 1e3, 10_000), places) for places in range(16)),
        near_tens.ravel(), powers, -powers,
        decimal_ties(rng, 16, 300), decimal_ties(rng, 17, 300), decimal_ties(rng, 18, 300),
        [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308],
        subnormals, -subnormals,
    ])


def test_write_csv_is_repr_on_a_million_values(tmp_path):
    values = formatter_cases()
    assert len(values) >= 10 ** 6 and np.isfinite(values).all()
    values = np.concatenate([values, np.zeros(-len(values) % 7)]).reshape(-1, 7)
    d = Dataset(tuple(f"V{j}" for j in range(7)), values)
    write_csv(d, tmp_path / "got.csv")
    reference_write_csv(d, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_few_normal_draws_fall_back_to_repr():
    # a formatter that sent every value through repr would pass the test above
    values = np.random.default_rng(7).normal(0.0, 1.0, 100_000)
    slow = data._shortest_digits(values)[2]
    assert slow.mean() < 0.02
