"""Make the benchmark's modules and the program importable in its tests.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")]
