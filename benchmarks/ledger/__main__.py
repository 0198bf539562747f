"""Entry point: ``python -m benchmarks.ledger`` or ``python3 benchmarks/ledger/__main__.py``.

Either form works from the repository root without ``PYTHONPATH``: the
root (for this package) and ``src`` (for ``repro``) go on ``sys.path`` here.
"""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
