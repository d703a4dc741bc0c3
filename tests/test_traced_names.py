"""The functions the benchmark's span tracer wraps by name all exist.

``perfbench/spans.py`` looks each traced (module, attribute) pair up when a
traced pass starts, so a rename in the package breaks only
``perfbench/run.py --trace 1``.  This resolves every pair without installing
the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(span, module, attr) for span, targets in spans.TRACED.items() for module, attr in targets]


@pytest.mark.parametrize("span, module, attr", _traced())
def test_traced_name_resolves(span, module, attr):
    owner = importlib.import_module(f"qgcutoff.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in getattr(owner, cls_name).__dict__, (span, module, attr)
    else:
        assert callable(getattr(owner, attr)), (span, module, attr)
