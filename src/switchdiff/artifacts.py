"""Artifact files are replaced whole, never left half written.

Every JSON or CSV artifact is written to a new temporary file in the target's
directory and renamed over the target only once the write has finished, so a
write that fails midway leaves the previous file as it was.
"""

from __future__ import annotations

import contextlib
import os
import uuid
from typing import Iterator, Optional, TextIO


@contextlib.contextmanager
def atomic_open(path: str, newline: Optional[str] = None) -> Iterator[TextIO]:
    """Text file opened for writing whose content reaches path only on success.

    os.replace moves the temporary file into place when the block exits
    normally; if the block raises, the temporary file is removed and path
    keeps its previous content (or stays absent).
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
