"""The benchmark's tracer wraps surfield from outside, by name; a rename in
the package must not leave it looking up a name that is gone."""
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from bench.tracing import KERNEL_METHODS, LAYERS, Tracer
    from surfield.kernel import GaussianKernel

    mods = {name: importlib.import_module(f"surfield.{name}") for name in LAYERS}
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    methods = {m: getattr(GaussianKernel, m) for m in KERNEL_METHODS}
    tr = Tracer()
    tr.install()
    try:
        assert all(getattr(GaussianKernel, m) is not fn for m, fn in methods.items())
        assert mods["inference"]._sciopt is not before["inference"]["_sciopt"]
        assert mods["manifold"].refined_grid is not before["manifold"]["refined_grid"]
    finally:
        tr.uninstall()
    assert {name: dict(vars(mod)) for name, mod in mods.items()} == before
    assert {m: getattr(GaussianKernel, m) for m in KERNEL_METHODS} == methods


def _replication_span_ancestors(monkeypatch, threads: int) -> list[tuple[str, list[str]]]:
    """(name, the names above it) of every threshold and LKC span of a traced
    2-replication run."""
    monkeypatch.syspath_prepend(str(ROOT))
    from bench.tracing import Tracer
    from surfield import inference

    tr = Tracer()
    tr.install()
    try:
        inference.fwer_experiment("nonstat1d", 2.0, 6, 2, threads=threads)
    finally:
        tr.uninstall()

    def ancestors(i):
        while tr.parent[i] >= 0:
            i = tr.parent[i]
            yield tr.names[i]

    return [(n, list(ancestors(i))) for i, n in enumerate(tr.names) if n in ("inference.threshold", "lkc.lkc_compute")]


def test_tracer_nests_replication_spans_under_the_harness(monkeypatch):
    # at threads=1 the replications run in the thread that entered fwer_experiment
    spans = _replication_span_ancestors(monkeypatch, threads=1)
    assert sorted(n for n, _ in spans) == ["inference.threshold"] * 2 + ["lkc.lkc_compute"] * 2
    assert all("inference.fwer_experiment" in above for _, above in spans)


def test_tracer_nests_worker_thread_spans_under_the_harness(monkeypatch):
    # threads=2 runs the replications in the thread that entered fwer_experiment
    # as well, so their spans nest under its span as at threads=1; were they run
    # on other threads, only the tracer's one stack shared by all threads would
    # nest them
    spans = _replication_span_ancestors(monkeypatch, threads=2)
    assert sorted(n for n, _ in spans) == ["inference.threshold"] * 2 + ["lkc.lkc_compute"] * 2
    assert all("inference.fwer_experiment" in above for _, above in spans)
