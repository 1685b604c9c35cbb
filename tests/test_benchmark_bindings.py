"""The benchmark's layer trace (``perfbench/layers.py``) wraps filtra
functions by module and attribute name from outside the package.  A rename
or deletion in filtra would break ``perfbench/run.py --trace 1`` without
any other test noticing, so every binding it names is resolved here."""
import importlib
import importlib.util

from filtra import groebner

from conftest import PKG_ROOT

LAYERS = PKG_ROOT / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    missing = []
    for name, modname, attr in load_layers().all_boundaries():
        owner = importlib.import_module(modname)
        if "." in attr:
            # methods are wrapped in their class's own namespace
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(name)
    assert missing == []


def test_names_the_benchmark_runner_reads_resolve():
    """``perfbench/run.py`` calls ``groebner.clear_cache()`` before each pass,
    and the trace reads ``GroebnerBasis.fingerprint`` from every basis it
    sees.  Neither is traced, and nothing in filtra uses them, so a cleanup
    that deleted them would break every benchmark pass unnoticed."""
    assert callable(groebner.clear_cache)
    assert isinstance(groebner.GroebnerBasis.fingerprint, property)
