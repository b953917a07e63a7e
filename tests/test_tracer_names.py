"""The benchmark's tracer patches ftk functions by name
(``benchmark/spans.py``).  A change that deletes or renames one of them
must fail here, in the test suite, and not only in a traced benchmark run."""

import importlib.util
import pathlib

import ftk
import ftk.cli
import ftk.oracles
import ftk.parallel
import ftk.semidirect

SPANS = pathlib.Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_patch():
    original = ftk.semidirect.zphi_solve
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        assert tracer.patches
        assert all(getattr(owner, attr) is wrapped for owner, attr, _, wrapped in tracer.patches)
        assert ftk.semidirect.zphi_solve is not original
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is orig for owner, attr, orig, _ in tracer.patches)
    assert ftk.semidirect.zphi_solve is original
