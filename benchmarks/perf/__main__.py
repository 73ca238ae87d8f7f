"""``python -m benchmarks.perf`` from the repository root: ``run.py``'s CLI."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import main  # noqa: E402

sys.exit(main())
