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

Records are built and read with Python's cyclic garbage collector paused
(collection_paused). A decoded JSON line and a record the simulator
renders are trees of dicts, lists and floats: reference counting frees
them, and no cycle can form among them. Yet each container counts towards
the collector's thresholds, so a large stream triggers collections, full
ones among them, that scan every object the process holds and free
nothing. The pause is process-wide, since the collector's switch is
global, and it restores only what it changed: it re-enables the collector
on exit, however the block ends, when it found it enabled, and leaves a
collector its caller had disabled as it was.
"""

import gc
import io
import os
import stat
from contextlib import contextmanager

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


@contextmanager
def collection_paused():
    """Disable automatic cyclic garbage collection for the block; on exit
    re-enable it if it was enabled on entry."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def open_bytes(path):
    """Open path for reading in binary mode.

    Raises:
        FileIoError: the file could not be opened; the message names the
            path.
    """
    try:
        return open(path, "rb")
    except OSError as exc:
        raise FileIoError(f"cannot read {path}: {exc.strerror or exc}") from exc


def open_text(path):
    """Open path for reading as UTF-8 text.

    Raises:
        FileIoError: the file could not be opened; the message names the
            path.
    """
    return io.TextIOWrapper(open_bytes(path), encoding="utf-8")
