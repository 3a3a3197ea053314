import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests draw the same examples on every run (derandomize), keep no
# example database, and have no per-example deadline, since the host's speed
# varies.
settings.register_profile("repo", deadline=None, derandomize=True, database=None)
settings.load_profile("repo")

# Hypothesis still caches the constants it reads from local modules, from
# collection on; that cache lives in a directory removed when pytest exits,
# not in the checkout.
_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_storage.name)


def pytest_unconfigure(config):
    _storage.cleanup()
