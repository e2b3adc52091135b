"""File access: the one reader every input goes through, and the writer
every output goes through, with its text and CSV forms.

An output is rewritten in place.  open(path, "w") truncates an existing
file to zero length on open, and ext4 then flushes the file to disk when it
is closed, which makes rewriting a small report cost tens of milliseconds
against well under one for the write itself.  open_output writes over the
old bytes and cuts the file to the new length at the end; a truncate to a
nonzero length does not trigger that flush.
"""

import contextlib
import csv
import hashlib
import os
import stat


@contextlib.contextmanager
def open_output(path):
    """Open path as UTF-8 text for writing, rewriting it in place.

    The file is opened without O_TRUNC (created with mode 0o666 & ~umask if
    missing), so it keeps its inode: hard links, owner and mode bits stay,
    and a symlink is followed, as with open(path, "w").  When the body ends,
    a regular file is cut to the length written; if the body raises, it is
    cut to zero length, so new bytes are never left followed by the old
    file's tail.  Other targets (/dev/null, a FIFO, a terminal) are written
    and never truncated.  Nothing is fsynced.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        end = 0
        try:
            # closefd=False: the file object's close flushes whatever the
            # body left buffered before the cut below.
            with open(fd, "w", newline="", encoding="utf-8", closefd=False) as fh:
                yield fh
            if regular:
                end = os.lseek(fd, 0, os.SEEK_CUR)
        finally:
            if regular:
                os.ftruncate(fd, end)
    finally:
        os.close(fd)


def write_text(path, text):
    """Write a string to path through open_output."""
    with open_output(path) as fh:
        fh.write(text)


def write_rows(path, rows):
    """Write rows of cells to path as CSV through open_output.

    The one CSV dialect of every export: csv.writer's defaults (commas,
    minimal quoting) with each row ending in "\n".
    """
    with open_output(path) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


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
