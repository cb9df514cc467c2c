"""The package's one file layer: every artifact is written through
`replacing`, and every binary file is read through `read_exact`.

`replacing` writes under a temporary name beside the target and renames
it over the target only when the write completes. A write that raises
(an error in the data, a full disk, an interrupt) leaves the previous
file, or none, never a partial one. The rename is atomic on POSIX file
systems. Nothing is fsynced, so a power loss can still lose a completed
write, and a process killed outright (SIGKILL) leaves its
``<name>.<pid>.tmp`` behind.

`read_exact` checks a declared length against the bytes left in the
file before it reads or allocates anything, so a corrupt size field
raises `ValueError`, not `MemoryError` or `OverflowError`.
"""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def replacing(path, mode: str = "wb"):
    """The file ``<path>.<pid>.tmp``, open in ``mode``; it replaces
    ``path`` when the ``with`` block completes and is removed if the
    block raises."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_exact(fh, k: int, what: str) -> bytes:
    """The next ``k`` bytes of the binary file ``fh``. Raises `ValueError`
    naming the ``what`` being read, before reading, if fewer are left."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if k > left:
        raise ValueError(f"truncated {what}: {k} bytes declared, "
                         f"{left} left")
    return fh.read(k)
