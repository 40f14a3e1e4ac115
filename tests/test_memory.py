"""No module keeps a process-lifetime cache that grows with every graph,
wdag or table it has seen: derived structure belongs to the value it is
derived from and is freed with it."""

import importlib
import pkgutil

import lll_workbench


def _callables(module):
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        yield f"{module.__name__}.{name}", obj
        if isinstance(obj, type):
            for attr, member in vars(obj).items():
                yield f"{module.__name__}.{name}.{attr}", member


def test_no_unbounded_functools_caches():
    unbounded = []
    for info in pkgutil.iter_modules(lll_workbench.__path__):
        module = importlib.import_module(f"lll_workbench.{info.name}")
        for name, obj in _callables(module):
            cache_info = getattr(obj, "cache_info", None)
            if callable(cache_info) and cache_info().maxsize is None:
                unbounded.append(name)
    assert not unbounded, f"unbounded caches: {unbounded}"


def test_pwdags_hold_parent_masks():
    # C5's 11,245 pwdags of at most 7 nodes: about 450 bytes each as a
    # label tuple and a parent-mask tuple (24 MB as frozensets of arc pairs)
    import tracemalloc

    from lll_workbench.graphs import DependencyGraph
    from lll_workbench.wdag import enumerate_pwdags

    c5 = DependencyGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    tracemalloc.start()
    try:
        pwdags = list(enumerate_pwdags(c5, 7))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pwdags) == 11_245
    assert held < 8 * 2**20, f"{held / 2**20:.1f} MB held"
    # the walk's own lists and per-call dicts, its sort keys among them,
    # are freed when it returns; they count in the peak
    assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MB at the peak"
