"""File access: the one reader every input goes through, and the one writer
every output goes through.

A command builds the bytes of every output before it calls write_outputs,
which opens every output before it writes any: a command that fails, on a
bad input, on an output it cannot open or on two outputs that name one
file, leaves every existing output as it was and creates none.  The one
stream that is still being built while it is written, simulate's rows, is
its command's only output.

An output is rewritten in place.  open(path, "w") truncates an existing
file to zero length on open, and ext4 then flushes the file to disk when it
is closed, which makes rewriting a small report cost tens of milliseconds
against well under one for the write itself.  write_outputs writes over the
old bytes and cuts the file to the new length at the end; a truncate to a
nonzero length does not trigger that flush.
"""

import csv
import hashlib
import io
import os
import stat
import sys


def write_outputs(outputs):
    """Write each (path, pieces) in the list `outputs`; `pieces` is an
    iterable of str.

    Every path is opened before any is written.  A missing path is created
    (O_EXCL, mode 0o666 & ~umask); an existing one is opened without
    O_TRUNC, so a file keeps its inode: hard links, owner and mode bits
    stay, and a symlink is followed, as with open(path, "w").  Two outputs
    that open one regular file (the same path, a hard link, a symlink) are
    a ValueError, raised before anything is written; /dev/null, a FIFO or
    a terminal may be given twice.  Then each output is written in turn,
    its pieces encoded as UTF-8 with backslash escapes for what UTF-8
    cannot encode (a lone surrogate from a file name that is not UTF-8 is
    written as `\\udcff`, as in the JSON report).  A regular file is cut to
    the length written, or to zero length if its own pieces raise, so new
    bytes are never left followed by the old file's tail.  Other targets
    are written and never truncated.  If this call raises, at an open, at
    the check or while writing, every file it created is removed again (the
    new target of a dangling symlink too; the link stays) and every
    existing file it did not reach keeps its bytes.
    A path of None (or "") is standard output.  Nothing is fsynced.
    """
    fds = []
    created = []  # paths this call created, removed again if it raises
    inodes = {}  # (st_dev, st_ino) -> the output path that opened it
    try:
        for path, _ in outputs:
            if not path:
                fds.append(None)
                continue
            try:
                fds.append(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
                created.append(path)
            except FileExistsError:  # also a symlink, which O_EXCL never follows
                try:
                    fds.append(os.open(path, os.O_WRONLY))
                except FileNotFoundError:  # a dangling symlink: create its target
                    target = os.path.realpath(path)
                    fds.append(os.open(target, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
                    created.append(target)
            st = os.fstat(fds[-1])
            key = (st.st_dev, st.st_ino)
            if key in inodes and stat.S_ISREG(st.st_mode):
                raise ValueError(f"outputs {inodes[key]} and {path} are one file")
            inodes[key] = path
        for fd, (_, pieces) in zip(fds, outputs):
            encoded = (piece.encode("utf-8", "backslashreplace") for piece in pieces)
            if fd is None:  # the escaped text, which any text stream takes
                sys.stdout.writelines(data.decode("utf-8") for data in encoded)
            else:
                _write_file(fd, encoded)
    except BaseException:
        for path in created:
            os.unlink(path)
        raise
    finally:
        for fd in fds:
            if fd is not None:
                os.close(fd)


def _write_file(fd, encoded):
    """Write the bytes of `encoded` over the file open at fd; cut a regular
    file to the length written, or to zero if `encoded` raises."""
    regular = stat.S_ISREG(os.fstat(fd).st_mode)
    end = 0
    try:
        # closefd=False: the file object's close flushes whatever is left
        # buffered before the cut below.
        with open(fd, "wb", closefd=False) as fh:
            fh.writelines(encoded)
        if regular:
            end = os.lseek(fd, 0, os.SEEK_CUR)
    finally:
        if regular:
            os.ftruncate(fd, end)


def csv_text(rows):
    """Rows of cells as CSV text, in the one CSV dialect of every export:
    csv.writer's defaults (commas, minimal quoting) with each row ending in
    "\\n"."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def read_input(path):
    """(text, sha256 hex digest) of an input file, whose bytes are read once.

    The digest is that of the bytes read.  They are decoded as strict UTF-8
    in one call, so a decoding error names its byte offset in the file, and
    one leading byte-order mark (Excel's "CSV UTF-8") is dropped.  Line
    endings are left as they are.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    return raw.decode("utf-8").removeprefix("\ufeff"), hashlib.sha256(raw).hexdigest()
