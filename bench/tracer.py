"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the steanedec modules from the
outside: nothing under ``src/`` is edited. Module-level functions are
rebound in every ``steanedec`` module that holds them, because the CLI
binds names at import time (``from .sim import sample_memory_batch``);
methods are replaced on their class. Spans are kept in memory as
``[name, start, end, parent, counts]`` and written once at the end.

A span's self time is its duration minus the durations of its direct
children. The calls are single-threaded, so children never overlap and
the self times of a span tree add up to the duration of its root.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np


def _rows(a) -> int:
    return int(np.shape(a)[0])


def _distinct(a) -> int:
    a = np.asarray(a)
    return int(np.unique(a.reshape(a.shape[0], -1), axis=0).shape[0])


def _file_bytes(args, out) -> dict:
    return {"bytes": os.path.getsize(args["path"])}


def _deepshap_counts(args, out) -> dict:
    n, nb = _rows(args["xs"]), _rows(args["background"])
    per_chunk = max(1, args["max_rows"] // nb)
    return {"pairs": n * nb, "chunk_rows": min(n, per_chunk) * nb,
            "inputs": n, "distinct_inputs": _distinct(args["xs"]),
            "background": nb,
            "distinct_background": _distinct(args["background"])}


def _shapley_counts(args, out) -> dict:
    n = _rows(args["xs"])
    players = int(np.prod(np.shape(args["xs"])[1:]))
    return {"inputs": n, "coalitions": n << players,
            "distinct_inputs": _distinct(args["xs"])}


# (span name, module, attribute, counter or None). "Class.method"
# attributes are patched on the class.
TARGETS = [
    ("sim.sample_memory_batch", "steanedec.sim", "sample_memory_batch",
     lambda a, o: {"shots": a["shots"], "shot_rounds": a["shots"] * a["T"]}),
    ("sim.run_memory_experiment", "steanedec.sim", "run_memory_experiment",
     None),
    ("sim.run_with_fault", "steanedec.sim", "run_with_fault", None),
    ("sim.dep_failure_fraction", "steanedec.sim", "dep_failure_fraction",
     None),
    ("circuits.build_qec_cycle", "steanedec.circuits", "build_qec_cycle",
     lambda a, o: {"gates": len(o)}),
    ("circuits.enumerate_single_faults", "steanedec.circuits",
     "enumerate_single_faults", lambda a, o: {"faults": len(o)}),
    ("seqlut.hook_correction_table", "steanedec.seqlut",
     "hook_correction_table", None),
    ("seqlut.predict_flips_batch", "steanedec.seqlut",
     "SeqLutDecoder.predict_flips_batch",
     lambda a, o: {"decodes": len(a["batch"])}),
    ("seqlut.decode_basis", "steanedec.seqlut", "SeqLutDecoder.decode_basis",
     None),
    ("dataset.write_dataset", "steanedec.dataset", "write_dataset",
     _file_bytes),
    ("dataset.export_text", "steanedec.dataset", "export_text", _file_bytes),
    ("dataset.read_dataset", "steanedec.dataset", "read_dataset",
     _file_bytes),
    ("decoders.predict_flips", "steanedec.decoders", "NnDecoder.predict_flips",
     lambda a, o: {"rows": _rows(a["volumes"])}),
    ("nn.Model.forward", "steanedec.nn.model", "Model.forward",
     lambda a, o: {"rows": _rows(a["x"])}),
    ("nn.Model.backward", "steanedec.nn.model", "Model.backward",
     lambda a, o: {"rows": _rows(a["dout"])}),
    ("nn.Lstm.forward", "steanedec.nn.layers", "Lstm.forward", None),
    ("nn.Lstm.backward", "steanedec.nn.layers", "Lstm.backward", None),
    ("nn.Dense.forward", "steanedec.nn.layers", "Dense.forward", None),
    ("nn.Dense.backward", "steanedec.nn.layers", "Dense.backward", None),
    ("nn.Masking.forward", "steanedec.nn.layers", "Masking.forward", None),
    ("nn.Masking.backward", "steanedec.nn.layers", "Masking.backward", None),
    ("nn.sigmoid", "steanedec.nn.layers", "sigmoid", None),
    ("nn.AdamState.update", "steanedec.nn.adam", "AdamState.update", None),
    ("nn.train", "steanedec.nn.train", "train",
     lambda a, o: {"sample_epochs": _rows(a["x"]) * len(o)}),
    ("nn.save_checkpoint", "steanedec.nn.checkpoint", "save_checkpoint",
     _file_bytes),
    ("nn.load_checkpoint", "steanedec.nn.checkpoint", "load_checkpoint",
     _file_bytes),
    ("xai.deepshap_batch", "steanedec.xai.deepshap", "deepshap_batch",
     _deepshap_counts),
    ("xai.exact_shapley_batch", "steanedec.xai.shapley",
     "exact_shapley_batch", _shapley_counts),
    ("analysis.logical_error_rate", "steanedec.analysis",
     "logical_error_rate", None),
    ("analysis.fit_infidelity", "steanedec.analysis", "fit_infidelity", None),
    ("analysis.ft_monitor", "steanedec.analysis", "ft_monitor", None),
    ("analysis.attribution_correlations", "steanedec.analysis",
     "attribution_correlations", None),
    ("analysis.derive_hook_signatures", "steanedec.analysis",
     "derive_hook_signatures", None),
]

STAGES = ("gen-data", "train", "dep", "eval", "explain", "monitor")
# root spans: one per CLI stage, plus the dnn2 library step
ROOTS = tuple(f"cli.{s}" for s in STAGES) + ("lib.agreement",)


class Recorder:
    """In-memory span list with the call stack that assigns parents."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.enabled = True

    def _open(self, name: str) -> list:
        entry = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(entry)
        entry[1] = time.perf_counter()
        return entry

    def _close(self, entry: list):
        entry[2] = time.perf_counter()
        self._stack.pop()

    def root(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` under a root span (a CLI stage or library step)."""
        entry = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(entry)

    def wrap(self, name: str, fn, counter=None):
        sig = inspect.signature(fn) if counter is not None else None
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            entry = rec._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec._close(entry)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                entry[4] = counter(bound.arguments, out)
            return out
        return traced

    def install(self):
        """Patch every target; counters run after the span has closed."""
        for name, modname, attr, counter in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth],
                                             counter))
                continue
            orig = getattr(mod, attr)
            traced = self.wrap(name, orig, counter)
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").startswith("steanedec"):
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, traced)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent", "counts"],
                       "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def tree_residuals(spans, own) -> dict[str, float]:
    """Per root span: |duration - sum of self times in its tree|, together
    with a check that every child lies inside its parent."""
    root_of = []
    for i, s in enumerate(spans):
        p = s[3]
        root_of.append(i if p < 0 else root_of[p])
        if p >= 0 and not (spans[p][1] <= s[1] <= s[2] <= spans[p][2]):
            raise ValueError(f"span {s[0]} escapes its parent")
    total = {}
    for i, r in enumerate(root_of):
        total[r] = total.get(r, 0.0) + own[i]
    return {spans[r][0]: abs((spans[r][2] - spans[r][1]) - t)
            for r, t in total.items()}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced workload run (zeros for layers
    the workload never calls)."""
    own = self_times(spans)
    calls, busy, selfs, counts = {}, {}, {}, {}
    for s, o in zip(spans, own):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (s[2] - s[1])
        selfs[name] = selfs.get(name, 0.0) + o
        for k, v in (s[4] or {}).items():
            key = (name, k)
            counts[key] = max(counts.get(key, 0), v) if k == "chunk_rows" \
                else counts.get(key, 0) + v

    def c(name, k):
        return counts.get((name, k), 0)

    m: dict[str, float] = {}
    for root in ROOTS:
        m[f"{root}.wall_s"] = busy.get(root, 0.0)
        m[f"{root}.self_s"] = selfs.get(root, 0.0)

    def basic(name, *keys):
        for k in keys:
            m[f"{name}.{k}"] = {"calls": calls.get(name, 0),
                                "busy_s": busy.get(name, 0.0),
                                "self_s": selfs.get(name, 0.0)}[k]

    n = "sim.sample_memory_batch"
    basic(n, "calls", "busy_s")
    m[f"{n}.shots"] = c(n, "shots")
    m[f"{n}.shot_rounds"] = c(n, "shot_rounds")
    m[f"{n}.shots_per_s"] = _ratio(c(n, "shots"), busy.get(n, 0.0))
    n = "sim.run_memory_experiment"
    basic(n, "calls", "busy_s")
    m[f"{n}.runs_per_s"] = _ratio(calls.get(n, 0), busy.get(n, 0.0))
    basic("sim.run_with_fault", "calls", "busy_s")
    n = "sim.dep_failure_fraction"
    basic(n, "busy_s")
    dep_idx = {i for i, s in enumerate(spans) if s[0] == n}
    m[f"{n}.faults"] = sum(1 for s in spans if s[0] == "sim.run_with_fault"
                           and s[3] in dep_idx)
    def in_fault_runs(name):
        """Spans of ``name`` nested in a single-fault run."""
        for s in spans:
            if s[0] == name:
                p = s[3]
                while p >= 0 and spans[p][0] != "sim.run_with_fault":
                    p = spans[p][3]
                if p >= 0:
                    yield s

    faults = calls.get("sim.run_with_fault", 0)
    n = "circuits.build_qec_cycle"
    basic(n, "calls", "busy_s")
    m[f"{n}.gates"] = c(n, "gates")
    # the cost of rebuilding the circuit for every injected fault
    m[f"{n}.gates_per_fault"] = _ratio(
        sum(s[4]["gates"] for s in in_fault_runs(n)), faults)
    n = "circuits.enumerate_single_faults"
    basic(n, "calls")
    m[f"{n}.faults"] = c(n, "faults")
    n = "seqlut.predict_flips_batch"
    basic(n, "calls", "busy_s")
    m[f"{n}.decodes"] = c(n, "decodes")
    m[f"{n}.decodes_per_s"] = _ratio(c(n, "decodes"), busy.get(n, 0.0))
    basic("seqlut.decode_basis", "calls", "busy_s")
    basic("seqlut.hook_correction_table", "busy_s")
    for op in ("write_dataset", "export_text", "read_dataset"):
        n = f"dataset.{op}"
        basic(n, "calls", "busy_s")
        m[f"{n}.bytes"] = c(n, "bytes")
    n = "decoders.predict_flips"
    basic(n, "calls", "busy_s")
    m[f"{n}.rows"] = c(n, "rows")
    m[f"{n}.rows_per_call"] = _ratio(c(n, "rows"), calls.get(n, 0))
    # batch size of the network decodes inside DEP (1 = one fault a call)
    dep = list(in_fault_runs(n))
    m[f"{n}.dep_rows_per_call"] = _ratio(sum(s[4]["rows"] for s in dep),
                                         len(dep))
    for op in ("forward", "backward"):
        n = f"nn.Model.{op}"
        basic(n, "calls", "busy_s")
        m[f"{n}.rows"] = c(n, "rows")
        for layer in ("Lstm", "Dense", "Masking"):
            basic(f"nn.{layer}.{op}", "busy_s")
    basic("nn.sigmoid", "calls", "busy_s")
    basic("nn.AdamState.update", "busy_s")
    basic("nn.train", "busy_s")
    m["nn.train.sample_epochs"] = c("nn.train", "sample_epochs")
    for op in ("save_checkpoint", "load_checkpoint"):
        n = f"nn.{op}"
        basic(n, "calls", "busy_s")
        m[f"{n}.bytes"] = c(n, "bytes")
    n = "xai.deepshap_batch"
    basic(n, "calls", "busy_s", "self_s")
    m[f"{n}.pairs"] = c(n, "pairs")
    m[f"{n}.pairs_per_s"] = _ratio(c(n, "pairs"), busy.get(n, 0.0))
    m[f"{n}.max_chunk_rows"] = c(n, "chunk_rows")
    m[f"{n}.distinct_inputs_frac"] = _ratio(c(n, "distinct_inputs"),
                                            c(n, "inputs"))
    m[f"{n}.distinct_background_frac"] = _ratio(c(n, "distinct_background"),
                                                c(n, "background"))
    n = "xai.exact_shapley_batch"
    basic(n, "calls", "busy_s")
    m[f"{n}.inputs"] = c(n, "inputs")
    m[f"{n}.coalitions"] = c(n, "coalitions")
    m[f"{n}.coalitions_per_s"] = _ratio(c(n, "coalitions"),
                                        busy.get(n, 0.0))
    m[f"{n}.distinct_inputs_frac"] = _ratio(c(n, "distinct_inputs"),
                                            c(n, "inputs"))
    for op in ("logical_error_rate", "fit_infidelity", "ft_monitor",
               "attribution_correlations", "derive_hook_signatures"):
        basic(f"analysis.{op}", "calls", "busy_s")
    return m
