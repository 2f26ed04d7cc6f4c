import sys
from pathlib import Path

from hypothesis import settings

# make the shared oracle helpers importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).resolve().parent))

# property tests draw the same examples on every run and have no per-example
# deadline: their cost is bounded by max_examples and by the strategies
settings.register_profile("pfdr", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("pfdr")
