"""Settings shared by every test module.

Hypothesis draws its examples from a fixed seed, so every run tests the
same examples; with a fixed seed it keeps no example database.  Its one
remaining cache, of the constants it reads from the source files, goes
to the temporary directory, so a run writes nothing into the checkout.
"""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "symindex-hypothesis")
