"""Entry point for ``python -m benchmarks.e2e`` and ``python benchmarks/e2e``.

Puts the repository root and ``src/`` on ``sys.path`` so the command
works from a bare checkout without ``PYTHONPATH`` or an install.
"""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e.cli import main  # noqa: E402 -- needs the path set up above

if __name__ == "__main__":
    sys.exit(main())
