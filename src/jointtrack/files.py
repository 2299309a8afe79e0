"""Opening the files the library reads and writes.

Every output file is written by write_text, whole and in one call, after
its text has been built, so a record that cannot be serialized raises
before the file is touched. An existing regular file with a single link is
unlinked and created anew instead of being truncated in place: ext4, with
its default auto_da_alloc, makes close() wait for writeback (about 50 ms)
when a file is truncated and rewritten, or renamed over another, and not
when the file is new. The new file takes its mode bits from the umask. A
symlink, FIFO, device or hard-linked file is written through, truncated in
place, so that the link's target, the reader or every other name gets the
new bytes. Nothing is fsync'ed: the library does not promise durability.
"""

import os
import stat

from .errors import FileIoError


def write_text(path, text: str) -> None:
    """Write text to path as UTF-8, without newline translation.

    Raises:
        FileIoError: the file could not be replaced or written; the
            message names the path.
    """
    try:
        try:
            st = os.lstat(path)
        except FileNotFoundError:
            pass
        else:
            if stat.S_ISREG(st.st_mode) and st.st_nlink == 1:
                os.unlink(path)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise FileIoError(f"cannot write {path}: {exc.strerror or exc}") from exc


def open_text(path):
    """Open path for reading as UTF-8 text.

    Raises:
        FileIoError: the file could not be opened; the message names the
            path.
    """
    try:
        return open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise FileIoError(f"cannot read {path}: {exc.strerror or exc}") from exc
