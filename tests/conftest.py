import os
import sys
from pathlib import Path

from hypothesis import settings

# the checkout's src comes first, here and in the subprocesses that some
# tests start, so the tests run the package beside them without an install;
# the shared oracle helpers are importable regardless of invocation directory
_TESTS = Path(__file__).resolve().parent
_SRC = str(_TESTS.parent / "src")
sys.path[:0] = [_SRC, str(_TESTS)]
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# property tests draw the same examples on every run and have no per-example
# deadline: their cost is bounded by max_examples and by the strategies
settings.register_profile("pfdr", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("pfdr")
