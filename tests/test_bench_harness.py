"""The benchmark harness under ``bench/`` calls into the package by name.

These tests only read ``bench/``: they fail when a change to the package
removes or renames a name the harness uses, which would otherwise only
show when a traced benchmark run breaks.
"""

import importlib
import importlib.util
import pathlib

import numpy as np

from steanedec.sim import single_fault_batch
from steanedec.steane import steane_code

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = load_bench_module("tracer")
    for name, modname, attr, _ in tracer.TARGETS:
        module = importlib.import_module(modname)
        if "." in attr:
            # `Recorder.install` patches methods through the class dict
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), name
        else:
            assert callable(getattr(module, attr)), name


def test_dep_volumes_equal_single_fault_batch():
    workload = load_bench_module("workload")
    code = steane_code()
    vols, labels = workload.dep_volumes(code, "Z", 2)
    batch = single_fault_batch(code, "Z", 2)
    assert np.array_equal(vols, batch.volumes)
    assert np.array_equal(labels, batch.m_L)
