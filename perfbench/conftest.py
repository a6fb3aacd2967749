import sys
from pathlib import Path

# the benchmark measures this checkout's kholo, not an installed one
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
