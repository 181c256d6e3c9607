"""The traced benchmark run patches package names by attribute path.

``bench/tracing.py`` lists them in ``PATCHED`` and resolves each with
``getattr`` when it installs its spans.  Resolving them here makes the
removal of a name the traced run needs fail in the test suite instead of
in ``bench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_patched_path_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHED
    for path in tracing.PATCHED:
        module_name, *attrs = path.split(".")
        owner = importlib.import_module(f"tangled_string.{module_name}")
        for attr in attrs:
            assert hasattr(owner, attr), path
            owner = getattr(owner, attr)
        assert callable(owner), path
