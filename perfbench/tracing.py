"""Layer spans recorded from outside the package.

``Tracer.install`` replaces each public function listed in ``TARGETS`` by
a timing wrapper, at its defining module and at every module that imported
it by name, and wraps ``numpy.linalg.eigvalsh`` so every eigensolve is
counted.  Nothing in the package changes on disk; ``uninstall`` restores
the originals.

A span is (name, start_ns, end_ns, span id, parent span id, request id);
the request id is the id of the outermost span, ``cli.main``, so every span
of one CLI invocation shares it.  Self time is a span's duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

import numpy as np

# (layer module, public name); "Class.method" wraps a method on the class,
# a bare class name wraps its constructor
TARGETS = (
    ("functions", "StandardFunction.eval"),
    ("functions", "StandardFunction.eval_many"),
    ("functions", "BlaschkeProduct.eval"),
    ("functions", "load_function"),
    ("hermitian", "HermitianMatrix"),
    ("hermitian", "inertia"),
    ("hermitian", "equilibrated_inertia"),
    ("hermitian", "solve_stein"),
    ("hermitian", "stein_series_sum"),
    ("pick", "pick_entries"),
    ("pick", "build_pick"),
    ("pick", "kn_profile"),
    ("pick", "Region.sample"),
    ("classify", "hindmarsh_test"),
    ("classify", "plateau_classify"),
    ("classify", "find_N"),
    ("classify", "witness_plan"),
    ("classify", "verify_witness"),
    ("realization", "realize_blaschke"),
    ("realization", "BlaschkeRealization.eval"),
    ("realization", "BlaschkeRealization.kernel_residual"),
    ("realization", "build_theta"),
    ("realization", "ThetaRealization.eval"),
    ("realization", "extract_sigma"),
    ("realization", "reconstruct_f"),
    ("cli", "main"),
)
EIGVALSH = "hermitian.eigvalsh"

# work counts taken from call arguments: points evaluated, points drawn, matrix order
SIZES = {
    "functions.StandardFunction.eval_many": lambda args, kwargs: np.size(args[1]),
    "pick.Region.sample": lambda args, kwargs: int(args[2] if len(args) > 2 else kwargs["count"]),
    EIGVALSH: lambda args, kwargs: np.shape(args[0])[-1],
}
SIZE_METRIC = {
    "functions.StandardFunction.eval_many": "points",
    "pick.Region.sample": "points",
    EIGVALSH: "mean_dim",
}

PACKAGE = "negsquares"
MODULES = ("hermitian", "functions", "pick", "realization", "divdiff", "classify", "cli")

SPAN_CAP = 100_000  # spans kept for the span file; the totals count every call


def layer_names() -> list[str]:
    return [f"{module}.{name}" for module, name in TARGETS] + [EIGVALSH]


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0, 0] for name in layer_names()}  # calls, self ns, size
        self.spans: list[tuple] = []
        self.dropped = 0
        self._next_id = 0
        self._stack: list[list[int]] = []  # [span id, child ns, request id]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        stats = self.stats[name]
        size = SIZES.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent, request = (stack[-1][0], stack[-1][2]) if stack else (-1, span_id)
            frame = [span_id, 0, request]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration - frame[1]
                if size is not None:
                    stats[2] += size(args, kwargs)
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((name, start, end, span_id, parent, request))
                else:
                    self.dropped += 1

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
        ]
        for module_name, public in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            name = f"{module_name}.{public}"
            if "." in public:
                cls_name, method = public.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self.wrap(name, getattr(cls, method)))
            elif isinstance(getattr(module, public), type):
                cls = getattr(module, public)
                self._patch(cls, "__init__", self.wrap(name, cls.__init__))
            else:
                original = getattr(module, public)
                wrapped = self.wrap(name, original)
                # every binding site: the defining module and each name import
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)
        self._patch(np.linalg, "eigvalsh", self.wrap(EIGVALSH, np.linalg.eigvalsh))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-round calls, self seconds and size figures for every layer."""
        out: dict[str, float] = {}
        for name, (calls, self_ns, size) in self.stats.items():
            out[f"{name}.calls"] = calls / rounds
            out[f"{name}.self_s"] = self_ns / 1e9 / rounds
            if name in SIZE_METRIC:
                key = SIZE_METRIC[name]
                out[f"{name}.{key}"] = (size / calls if calls else 0.0) if key == "mean_dim" else size / rounds
        return out

    def write_spans(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "id", "parent", "request"],
                                 "kept": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
