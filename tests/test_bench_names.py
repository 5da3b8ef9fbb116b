"""The benchmark tracer reads its per-layer figures from spans named ``layer.function``.

A span name that no longer names a public function reads 0 on every run, with no
error, so a renamed or deleted function would silently zero a metric.  These tests
import ``bench/tracer.py`` as it is and check each name it reads against the package.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(BENCH))  # tracer imports its sibling modules by plain name
    try:
        import tracer
    finally:
        sys.path.remove(str(BENCH))
    return tracer


def test_every_function_a_per_layer_metric_names_is_public(tracer):
    """``layer.function.<figure>`` metrics, the peak passes and the six study drivers."""
    studies = {f"simulate.{study}" for study in tracer.STUDY_FUNCTIONS.values()}
    named = {name.rsplit(".", 1)[0] for name, *_ in tracer.PER_LAYER
             if name.count(".") == 2 and name.split(".")[0] in tracer.LAYERS}
    named = (named - studies) | set(tracer.PEAK_FUNCTIONS)
    named |= {f"simulate.{function}" for function in tracer.STUDY_FUNCTIONS}
    assert named <= set(tracer.public_functions()), sorted(named - set(tracer.public_functions()))

