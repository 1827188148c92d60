"""The benchmark's tracer (bxbench/tracer.py) patches bxmech at fixed
import sites and methods.  Installing it here makes a moved or renamed
boundary fail in the test suite, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "bxbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bxbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def site_objects(tracer_module):
    out = {}
    for attr, modules in tracer_module.FUNCTION_SITES.values():
        for name in modules:
            out[(name, attr)] = getattr(importlib.import_module(name), attr)
    for module_name, cls_name, method in tracer_module.METHOD_SITES.values():
        cls = getattr(importlib.import_module(module_name), cls_name)
        out[(module_name, f"{cls_name}.{method}")] = cls.__dict__[method]
    return out


def test_tracer_installs_at_every_boundary_and_uninstalls():
    tracer_module = load_tracer()
    before = site_objects(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        during = site_objects(tracer_module)
    finally:
        tracer.uninstall()
    assert all(during[site] is not before[site] for site in before)
    assert site_objects(tracer_module) == before
