"""The benchmark's probes still find what they wrap.

``perfbench/probes.py`` installs its wrappers with ``setattr`` on the
modules of ``src/``, after reading each attribute, so a renamed or removed
name fails the traced and untraced benchmark runs, not this suite's other
tests.  These tests fail first.
"""

import importlib.util
from pathlib import Path

import pytest

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


@pytest.fixture(scope="module")
def probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_points_resolve(probes):
    for mod, attr, span in probes.TRACE_POINTS:
        assert callable(getattr(mod, attr, None)), (mod.__name__, attr, span)


def test_caches_resolve(probes):
    for name, cached in probes.CACHES.items():
        assert callable(cached.cache_info) and callable(cached.cache_clear), name


@pytest.mark.parametrize("probe", ["Meter", "Tracer"])
def test_probe_targets_patch_and_restore(probes, probe):
    targets = getattr(probes, probe)(probes.Speed()).targets()
    wrapped = {(mod.__name__, attr) for mod, attr, _ in targets}
    assert {("p5cert.p5free", "prove"), ("p5cert.harness", "prove"), ("p5cert.p5free", "verify")} <= wrapped
    before = [getattr(mod, attr) for mod, attr, _ in targets]
    with probes.patched(targets):
        assert all(getattr(mod, attr) is fn for mod, attr, fn in targets)
    assert [getattr(mod, attr) for mod, attr, _ in targets] == before
