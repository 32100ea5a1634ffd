"""Span tracer that instruments l1bn from the outside by wrapping module attributes.

Nothing inside the library is changed on disk: ``Tracer.instrument`` replaces
public functions and layer methods with timing wrappers for the duration of a
traced pass, and ``Tracer.restore`` puts the originals back.  Several l1bn
modules import batchnorm/tensor functions by name (``from .batchnorm import
bn_forward_train``), so every module namespace that holds a wrapped function
object is patched, not only the defining module.

Each wrapped call records a span (id, parent id, name, start ns, end ns) in
memory.  Self time is accumulated on the fly as span duration minus the
durations of its direct child spans; the spans themselves are written out by
``write_spans`` when the benchmark ends.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# Spans kept in memory for the span file; a validate round alone opens ~70k.
MAX_SPANS = 250_000

# Span name for each wrapped function, by module.  Class methods are given as
# "Class.method".  Everything sharing a span name is one layer phase.
SPANS = {
    "tensor": {
        "reduce_mean": "tensor.reduce",
        "reduce_sum": "tensor.reduce",
        "sign": "tensor.elementwise",
        "Rng.normal": "tensor.rng",
        "Rng.uniform": "tensor.rng",
        "Rng.permutation": "tensor.rng",
    },
    "batchnorm": {
        "bn_forward_train": "batchnorm.fwd_train",
        "bn_backward_l2": "batchnorm.bwd",
        "bn_backward_l1_simplified": "batchnorm.bwd",
        "bn_backward_l1_naive": "batchnorm.bwd_naive",
        "bn_forward_infer": "batchnorm.fwd_infer",
        "update_running_stats": "batchnorm.running_stats",
        "l2_batch_stats": "batchnorm.stats",
        "l1_batch_stats": "batchnorm.stats",
    },
    "gradcheck": {
        "check_layer": "gradcheck.check_layer",
        "finite_diff": "gradcheck.finite_diff",
    },
    "trainer": {
        "DenseLayer.forward": "trainer.dense",
        "DenseLayer.backward": "trainer.dense",
        "ReluLayer.forward": "trainer.relu",
        "ReluLayer.backward": "trainer.relu",
        "BnLayer.forward": "trainer.bn_layer",
        "BnLayer.backward": "trainer.bn_layer",
        "softmax_cross_entropy": "trainer.softmax",
        "sgd_update": "trainer.sgd",
        "accuracy": "trainer.eval",
        "forward_backward_step": "trainer.step",
        "run_experiment": "trainer.run",
    },
    "ratio": {
        "gaussian_ratio_trial": "ratio",
        "uniform_ratio_trial": "ratio",
        "channelwise_ratio_map": "ratio",
    },
    "costmodel": {
        "parse_architecture": "costmodel",
        "model_report": "costmodel",
    },
    "cli": {
        "main": "cli",
    },
}

# Layer-object spans are not opened inside an eval span: the full-set
# forward passes of the per-epoch evaluation stay in trainer.eval's self time
# instead of being mixed into the training-step dense/relu/bn_layer figures.
_EVAL_SPAN = "trainer.eval"
_LAYER_OBJECT_SPANS = ("trainer.dense", "trainer.relu", "trainer.bn_layer")

# Batchnorm entry points whose per-element cost is sampled per mode.  Each
# takes the tensor first and, second, the params or cache that carries .mode.
_PER_ELEMENT = ("batchnorm.fwd_train", "batchnorm.bwd", "batchnorm.fwd_infer")


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.max_rel_err = 0.0  # worst gradient error among traced gradchecks
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0
        self._eval_depth = 0
        self._paused = False
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def paused(self):
        """Run library calls untraced (used for the benchmark's own output checks)."""
        self._paused, before = True, self._paused
        try:
            yield
        finally:
            self._paused = before

    def _wrap(self, name: str, fn):
        per_element = name in _PER_ELEMENT
        layer_object = name in _LAYER_OBJECT_SPANS
        is_eval = name == _EVAL_SPAN
        is_probe = name == "gradcheck.finite_diff"
        is_ratio = name == "ratio"
        is_check = name == "gradcheck.check_layer"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused or (layer_object and self._eval_depth):
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0]
            self._stack.append(frame)
            self._eval_depth += is_eval
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._eval_depth -= is_eval
                self._stack.pop()
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, parent, name, start, end))
                else:
                    self.dropped += 1
                self.calls[name] += 1
                self.self_ns[name] += dur - frame[1]
                self.total_ns[name] += dur
                if per_element:
                    key = f"{name}.{args[1].mode.value}.ns_per_elem"
                    self.samples[key].append(dur / args[0].size)
                elif is_probe:
                    probes = 2 * args[1].size
                    self.counts["gradcheck.probes"] += probes
                    self.samples["gradcheck.probe_us"].append(dur / 1e3 / probes)
                elif is_ratio:
                    self.counts["ratio.samples"] += _ratio_samples(fn.__name__, args, kwargs)
            if is_check:
                self.max_rel_err = max(self.max_rel_err, result.max_rel_err)
            return result
        return wrapper

    def instrument(self, modules: dict) -> None:
        """Wrap every function in SPANS, in every l1bn namespace that holds it."""
        replacements = {}
        for mod_name, table in SPANS.items():
            module = modules[mod_name]
            for attr, span in table.items():
                owner, leaf = module, attr
                if "." in attr:
                    cls_name, leaf = attr.split(".")
                    owner = getattr(module, cls_name)
                original = owner.__dict__[leaf]
                wrapped = self._wrap(span, original)
                self._patch(owner, leaf, wrapped)
                replacements[id(original)] = (original, wrapped)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write_spans(self, path) -> None:
        """Gzipped JSON lines: id, parent (-1 for a root), name, start/end ns.

        Only the first MAX_SPANS spans are kept; a final line gives the number
        dropped.  Counts and self times always cover every span.
        """
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span_id, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")
            fh.write(json.dumps({"dropped": self.dropped}) + "\n")


def _ratio_samples(fn_name: str, args, kwargs) -> int:
    if fn_name == "channelwise_ratio_map":
        return int(args[0].size)
    return int(args[0] if args else kwargs["n"])
