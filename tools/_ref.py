"""The two steps the tools share to compare this tree with a git ref.

:func:`extract_src` writes the ``src/`` tree of a ref into a directory;
:func:`import_package` imports ``zenodecay`` from a given source directory
and refuses any other copy (an installed one found first on the path).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract_src(ref: str, into: str) -> Path:
    """Extract the ``src/`` tree of the git ref ``ref`` into the directory ``into``.

    Returns the extracted ``src`` directory.  A bad ref raises
    :class:`subprocess.CalledProcessError` with git's message as its stderr.
    """
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True, capture_output=True)
    return Path(into) / "src"


def import_package(src: Path):
    """The ``zenodecay`` package imported from the source directory ``src``."""
    sys.path.insert(0, str(src))
    import zenodecay

    if not Path(zenodecay.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"zenodecay was imported from {zenodecay.__file__}, not from {src}")
    return zenodecay
