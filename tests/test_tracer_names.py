"""The benchmark's tracer patches ftk functions by name
(``benchmark/spans.py``), and its workloads call ftk by dotted names such
as ``ftk.LaurentSeries.make``.  A change that deletes or renames one of
them must fail here, in the test suite, and not only in a benchmark run."""

import importlib
import importlib.util
import pathlib
import re

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


def _resolve(chain: str):
    """The object a dotted chain ftk.a.b... names: the longest prefix that
    imports as a module, then attributes; AttributeError if one is gone."""
    parts = chain.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(chain)


def _benchmark_chains():
    """Every ftk.a.b... chain in benchmark/*.py, with the uses of a local
    alias bound as ``g = ftk.groupoids`` read as chains of its target."""
    chains = set()
    for path in sorted(SPANS.parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        chains.update(re.findall(r"(?<![\w.])ftk(?:\.\w+)+", text))
        for alias, target in re.findall(r"^\s*(\w+) = (ftk(?:\.\w+)+)\s*$", text, re.M):
            chains.update(target + rest for rest in re.findall(rf"(?<![\w.]){alias}((?:\.\w+)+)", text))
    return sorted(chains)


def test_every_name_the_benchmark_reads_resolves():
    chains = _benchmark_chains()
    assert "ftk.LaurentSeries.make" in chains and "ftk.groupoids.SetSystem" in chains
    missing = []
    for chain in chains:
        try:
            _resolve(chain)
        except (ImportError, AttributeError):
            missing.append(chain)
    assert missing == [], f"benchmark/*.py reads names ftk no longer has: {missing}"
