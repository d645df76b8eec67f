"""The names the benchmark looks up in the program all resolve.

``bench/tracing.py`` wraps program functions where the calling module
looks them up, and ``bench/ops.py`` reaches the program through the
attributes ``make_api`` reads.  A renamed or removed function would
otherwise show up only as a failing traced benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def program():
    """The program's modules, imported the way the benchmark imports them."""
    return run.setup({})[0]


@pytest.mark.parametrize("lookup", sorted(f"{module}.{attr}" for module, attr in tracing.PATCHES))
def test_traced_lookup_resolves(program, lookup):
    module, attr = lookup.split(".")
    assert callable(getattr(getattr(program, module), attr))


@pytest.mark.parametrize("name", tracing.TERM_CLASSES)
def test_counted_term_class_resolves(program, name):
    assert isinstance(getattr(program.terms, name), type)


def test_pospoly_mul_resolves(program):
    assert callable(program.normalize.PosPoly.mul)


def test_benchmark_api_resolves(program):
    api = ops.make_api(program)
    assert all(callable(fn) for fn in vars(api).values())
    assert set(tracing.API_SPANS) <= set(vars(api))
