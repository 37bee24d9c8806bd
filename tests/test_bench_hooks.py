"""The benchmark's trace hooks name functions that exist.

`bench/spans.py` wraps every (module, function) in its `SPAN_SITES` when a
traced run starts, looking each one up with `getattr`, so renaming one of
those functions would make `bench/run.py --trace 1` fail.  The file is only
read here; nothing is installed.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _span_sites():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_SITES


def test_every_span_site_is_a_callable_of_the_program():
    sites = _span_sites()
    assert sites
    for module_name, attr, _ in sites:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr} is not a callable"
