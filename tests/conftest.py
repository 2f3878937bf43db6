import importlib.util
import os
import signal
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from simpca import center_scale

# Hypothesis imports libcst, when it is installed, to suggest a patch for a
# failing example, and a module libcst imports warns DeprecationWarning when
# it is first imported: under -W error that ends the session inside the
# plugin before the example is printed. Importing it once here, with that
# warning ignored, leaves the plugin's later import nothing to warn about.
if importlib.util.find_spec("libcst") is not None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        importlib.import_module("hypothesis.extra._patching")

DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data")
EUROJOBS = os.path.join(DATA_DIR, "eurojobs.csv")


@contextmanager
def time_limit(seconds):
    """Fail a block that runs longer than ``seconds`` instead of letting it
    stall the suite (SIGALRM, so POSIX and the main thread only)."""

    def expire(signum, frame):
        pytest.fail(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def random_data(rng, n=None, p=None, scaling="none"):
    """A random centered DataMatrix with a non-trivial covariance structure."""
    if n is None:
        n = int(rng.integers(8, 31))
    if p is None:
        p = int(rng.integers(3, 13))
    base = rng.standard_normal((n, max(2, p // 2)))
    mix = rng.standard_normal((max(2, p // 2), p))
    raw = base @ mix + 0.35 * rng.standard_normal((n, p)) + rng.normal(0, 3, p)
    return center_scale(raw, scaling=scaling)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
