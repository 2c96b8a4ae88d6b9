"""Entry point named in ``BENCHMARK.json``: runnable as a plain script
from the root of a checkout, with no ``PYTHONPATH`` set."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
