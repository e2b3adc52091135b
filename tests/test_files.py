"""Output files are rewritten in place: no O_TRUNC on open, cut to length
at the end, emptied when the write fails, same inode as open(path, "w").
Every output is opened before any is written, so a command that exits 2
leaves every existing output as it was and creates none; two outputs on one
file are exit 2.  Each input file is opened once per command."""

import builtins
import collections
import os
import stat

import pytest

from pathtrek.cli import main
from pathtrek.correlation import correlation_csv, load_correlation_csv
from pathtrek.errors import ParseError
from pathtrek.files import read_input, write_outputs

from conftest import DATA_DIR

CORR = str(DATA_DIR / "observed_correlations.csv")
SCORES = str(DATA_DIR / "sample_scores.csv")
INITIAL = str(DATA_DIR / "initial_model.pm")
REVISED = str(DATA_DIR / "revised_model.pm")
REVISED_PUBLISHED = str(DATA_DIR / "revised_model_published.pm")

# Every file the program writes, by the command or call that writes it.
WRITERS = {
    "fit": (["report.json", "treks.csv", "effects.csv"], lambda out: main([
        "fit", "--corr", CORR, "--n", "240", "--model", REVISED_PUBLISHED,
        "--format", "json", "--out", out[0],
        "--treks-csv", out[1], "--effects-csv", out[2]])),
    "revise": (["report.txt", "final.pm", "trace.csv"], lambda out: main([
        "revise", "--corr", CORR, "--n", "240", "--model", INITIAL,
        "--out", out[0], "--out-model", out[1], "--trace-csv", out[2]])),
    "screen": (["report.txt", "residuals.csv"], lambda out: main([
        "screen", "--data", SCORES, "--model", REVISED,
        "--out", out[0], "--residuals-csv", out[1]])),
    "simulate": (["sim.csv"], lambda out: main([
        "simulate", "--model", REVISED_PUBLISHED, "--n", "240", "--seed", "7",
        "--out", out[0]])),
    "write_outputs": (["corr.csv"], lambda out: write_outputs(
        [(out[0], [correlation_csv(load_correlation_csv(CORR, 240))])])),
}


def _run(name, directory):
    names, call = WRITERS[name]
    paths = [str(directory / n) for n in names]
    assert call(paths) in (0, None)
    return paths


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writers_open_without_truncating(tmp_path, monkeypatch, name):
    os_opens, opens = [], []
    real_os_open, real_open = os.open, builtins.open

    def spy_os_open(path, flags, *args, **kwargs):
        os_opens.append((os.fspath(path), flags))
        return real_os_open(path, flags, *args, **kwargs)

    def spy_open(file, mode="r", *args, **kwargs):
        opens.append((file, mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy_os_open)
    monkeypatch.setattr(builtins, "open", spy_open)
    paths = _run(name, tmp_path)
    monkeypatch.undo()

    assert {p for p, _ in os_opens} >= set(paths)
    assert not [p for p, flags in os_opens if flags & os.O_TRUNC]
    # A "w" mode is only ever given to a descriptor, which truncates nothing.
    assert not [f for f, mode in opens if "w" in mode and not isinstance(f, int)]


@pytest.mark.parametrize("argv", [
    ["fit", "--corr", CORR, "--n", "240", "--model", REVISED],
    ["revise", "--corr", CORR, "--n", "240", "--model", INITIAL],
    ["fit", "--data", SCORES, "--model", REVISED],
    ["revise", "--data", SCORES, "--model", REVISED],
    ["screen", "--data", SCORES, "--model", REVISED],
], ids=["fit-corr", "revise-corr", "fit-data", "revise-data", "screen-data"])
def test_each_input_is_opened_once(tmp_path, monkeypatch, argv):
    # the report's digest of a file comes from the bytes that were parsed
    inputs = {argv[i + 1] for i, arg in enumerate(argv) if arg in ("--corr", "--data", "--model")}
    opened = collections.Counter()
    real_os_open, real_open = os.open, builtins.open

    def spy_os_open(path, flags, *args, **kwargs):
        opened[os.fspath(path)] += 1
        return real_os_open(path, flags, *args, **kwargs)

    def spy_open(file, *args, **kwargs):
        if not isinstance(file, int):
            opened[os.fspath(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy_os_open)
    monkeypatch.setattr(builtins, "open", spy_open)
    assert main(argv + ["--out", str(tmp_path / "report.txt")]) == 0
    monkeypatch.undo()

    assert {p: opened[p] for p in inputs} == dict.fromkeys(inputs, 1)


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_rewrite_over_longer_file_leaves_no_tail(tmp_path, name):
    fresh_dir, stale_dir = tmp_path / "fresh", tmp_path / "stale"
    fresh_dir.mkdir()
    stale_dir.mkdir()
    fresh = _run(name, fresh_dir)
    for n in WRITERS[name][0]:
        (stale_dir / n).write_bytes(b"\xff stale\n" * 50_000)  # 400 kB
    stale = _run(name, stale_dir)
    for f, s in zip(fresh, stale):
        with open(f, "rb") as a, open(s, "rb") as b:
            assert b.read() == a.read(), s


@pytest.mark.parametrize("name", sorted(set(WRITERS) - {"write_outputs"}))
def test_unopenable_output_keeps_every_other_output(tmp_path, capsys, name):
    # one output cannot be opened, whichever it is: the command exits 2
    # having written none of the others
    names, call = WRITERS[name]
    for missing in range(len(names)):
        paths = [tmp_path / n for n in names]
        paths[missing] = tmp_path / "missing" / names[missing]
        kept = {p: b"known bytes of %s\n" % p.name.encode() for p in paths if p.parent == tmp_path}
        for path, content in kept.items():
            path.write_bytes(content)
        assert call([str(p) for p in paths]) == 2
        assert "pathtrek: error:" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in kept} == kept


MULTI_OUTPUT = sorted(name for name, (names, _) in WRITERS.items() if len(names) > 1)


@pytest.mark.parametrize("link", [False, True], ids=["same-path", "hard-link"])
@pytest.mark.parametrize("name", MULTI_OUTPUT)
def test_two_outputs_on_one_file_exit_2(tmp_path, capsys, name, link):
    names, call = WRITERS[name]
    paths = [tmp_path / n for n in names]
    paths[0].write_bytes(b"known bytes\n")
    if link:
        os.link(paths[0], paths[-1])
    else:
        paths[-1] = paths[0]
    assert call([str(p) for p in paths]) == 2
    assert "are one file" in capsys.readouterr().err
    assert paths[0].read_bytes() == b"known bytes\n"
    assert not [p for p in paths[1:-1] if p.exists()]


@pytest.mark.parametrize("name", MULTI_OUTPUT)
def test_exit_2_creates_no_output(tmp_path, capsys, name):
    # the new paths are opened, and created, before the one that fails
    names, call = WRITERS[name]
    paths = [tmp_path / n for n in names]
    paths[-1] = tmp_path / "missing" / names[-1]
    assert call([str(p) for p in paths]) == 2
    assert "pathtrek: error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_dev_null_may_take_two_outputs(capsys):
    assert main(["fit", "--corr", CORR, "--n", "240", "--model", REVISED,
                 "--out", os.devnull, "--effects-csv", os.devnull]) == 0
    assert capsys.readouterr().out == ""


def _failing_pieces(size):
    yield "n" * size
    raise RuntimeError("pieces failed")


@pytest.mark.parametrize("size", [10, 200_000])  # still buffered, partly flushed
def test_failed_write_leaves_regular_file_empty(tmp_path, size):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old contents\n" * 1000)
    with pytest.raises(RuntimeError):
        write_outputs([(path, _failing_pieces(size))])
    assert path.read_bytes() == b""


def test_failed_write_cuts_only_its_own_file(tmp_path):
    # outputs are written in turn: the one before is complete, the one after
    # is untouched
    paths = [tmp_path / n for n in ("a.txt", "b.txt", "c.txt")]
    for path in paths:
        path.write_bytes(b"old contents\n")
    with pytest.raises(RuntimeError):
        write_outputs([(paths[0], ["new ", "a\n"]), (paths[1], _failing_pieces(10)),
                       (paths[2], ["new c\n"])])
    assert [p.read_bytes() for p in paths] == [b"new a\n", b"", b"old contents\n"]


def test_failed_write_removes_the_files_it_created(tmp_path):
    # a new output is removed even when it was written in full
    paths = [tmp_path / n for n in ("new-a.txt", "new-b.txt", "old.txt")]
    paths[2].write_bytes(b"old contents\n")
    with pytest.raises(RuntimeError):
        write_outputs([(paths[0], ["new a\n"]), (paths[1], _failing_pieces(10)),
                       (paths[2], ["new c\n"])])
    assert [p.name for p in tmp_path.iterdir()] == ["old.txt"]
    assert paths[2].read_bytes() == b"old contents\n"


def test_failed_write_removes_a_dangling_symlinks_new_target(tmp_path):
    link = tmp_path / "dang"
    link.symlink_to("nowhere")
    with pytest.raises(FileNotFoundError):
        write_outputs([(link, ["x"]), (tmp_path / "missing" / "y", ["y"])])
    assert [p.name for p in tmp_path.iterdir()] == ["dang"]
    assert link.is_symlink() and not (tmp_path / "nowhere").exists()


def test_write_through_a_dangling_symlink_creates_its_target(tmp_path):
    link = tmp_path / "dang"
    link.symlink_to("nowhere")
    write_outputs([(link, ["new\n"])])
    assert link.is_symlink() and (tmp_path / "nowhere").read_bytes() == b"new\n"


def test_rewrite_keeps_inode_links_and_mode(tmp_path):
    target = tmp_path / "report.json"
    target.write_bytes(b"x" * 50_000)
    target.chmod(0o640)
    link = tmp_path / "hard-link.json"
    os.link(target, link)
    symlink = tmp_path / "sym.json"
    symlink.symlink_to(target)
    before = target.stat()

    assert main(["fit", "--corr", CORR, "--n", "240", "--model", REVISED,
                 "--format", "json", "--out", str(symlink)]) == 0

    after = target.stat()
    assert after.st_ino == before.st_ino
    assert stat.S_IMODE(after.st_mode) == 0o640
    assert symlink.is_symlink()
    assert link.read_bytes() == target.read_bytes()
    assert target.read_bytes().startswith(b"{")
    assert after.st_size < 50_000


def test_new_file_mode_follows_umask(tmp_path):
    old = os.umask(0o027)
    try:
        write_outputs([(tmp_path / "new.txt", ["x\n"])])
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "new.txt").stat().st_mode) == 0o640


def test_fit_to_dev_null(capsys):
    assert main(["fit", "--corr", CORR, "--n", "240", "--model", REVISED,
                 "--out", os.devnull]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("where", ["missing/report.txt", "."])
def test_unwritable_target_exits_2(tmp_path, capsys, where):
    out = tmp_path / where
    assert main(["fit", "--corr", CORR, "--n", "240", "--model", REVISED,
                 "--out", str(out)]) == 2
    assert "pathtrek: error:" in capsys.readouterr().err


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_input_name_that_is_not_utf8_is_escaped(tmp_path, capsys, fmt, to_file):
    # a file name of bytes that are not UTF-8 reaches the report as the
    # escape the JSON encoder writes, in both formats and to either target
    corr = tmp_path / "c\udcff.csv"
    with open(CORR, "rb") as fh:
        corr.write_bytes(fh.read())
    out = tmp_path / "report"
    argv = ["fit", "--corr", str(corr), "--n", "240", "--model", REVISED, "--format", fmt]
    assert main(argv + (["--out", str(out)] if to_file else [])) == 0
    written = out.read_bytes().decode("utf-8") if to_file else capsys.readouterr().out
    assert "c\\udcff.csv" in written


@pytest.mark.parametrize("raw,offset", [
    (b"\xff", 0), (b"a,b\n1,\xe9\n", 6), (b"\xef\xbb\xbfa\xc3", 4),
], ids=["first-byte", "latin-1", "truncated-after-bom"])
def test_read_input_that_is_not_utf8_names_path_and_offset(tmp_path, raw, offset):
    path = tmp_path / "in.csv"
    path.write_bytes(raw)
    with pytest.raises(ParseError) as caught:
        read_input(path)
    assert str(caught.value).startswith(f"{path}: byte {offset}: not UTF-8 (")
    # still the decoder's error, for callers that read its offsets
    assert isinstance(caught.value, UnicodeDecodeError) and caught.value.start == offset
