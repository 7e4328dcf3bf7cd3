"""perfbench — the two-clock benchmark (see perfbench/README.md).

Importing the package puts the repository's ``src/`` on ``sys.path`` so
that ``python3 perfbench/run.py`` and ``python -m perfbench.run`` work
from a bare checkout without ``PYTHONPATH``.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
