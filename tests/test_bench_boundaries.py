"""The benchmark's tracer (bxbench/tracer.py) patches bxmech at fixed
import sites and methods, and its observers read the arguments and results
there.  Installing it here, and running harness ops under it, makes a moved
or renamed boundary, or a changed protocol at one, fail in the test suite,
not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bxbench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bxbench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
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
    tracer_module = load_bench_module("tracer")
    before = site_objects(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        during = site_objects(tracer_module)
    finally:
        tracer.uninstall()
    assert all(during[site] is not before[site] for site in before)
    assert site_objects(tracer_module) == before


def test_one_harness_op_of_each_kind_passes_under_the_tracer(tmp_path):
    # an op's kind is its call (fuzz-nodes, fuzz-wishlists, inpa,
    # fuzz-nodes-small) and its mechanism family (greedy, ls, nu, io, ...)
    workloads = load_bench_module("workloads")
    plan = workloads.make_harness(1, tmp_path)
    first = {}
    for op in plan.periods[0]:
        call, mechanism = op.label.split()[-2:]
        first.setdefault((call, mechanism.split(":")[0]), op)
    assert len(first) == 13
    tracer = load_bench_module("tracer").Tracer()
    tracer.install()
    try:
        problems = [(op.label, op.check(op.run(tracer)).problem) for op in first.values()]
        final_problems = plan.final_check()
    finally:
        tracer.uninstall()
    assert [(label, p) for label, p in problems if p is not None] == []
    assert final_problems == []
    idle = [s for s in workloads.WORKLOADS["harness"].expected_spans if tracer.calls(s) == 0]
    assert idle == []
