"""Operation counting and FPGA-weighted time/power estimates for BN layers.

Counting convention, one training step (forward + backward) of a single
normalization layer with pooled count B = m·h·w and c features:

    variance scaling (L2)
      forward:  one square per element for the squared deviations   -> B·c square
                two roots per feature: σ_B = sqrt(var) for the
                running statistics and sqrt(var+ε) for the scale    -> 2·c root
      backward: no root; it reuses the sqrt(var+ε) the forward cached

    deviation scaling (L1, plain or compensated)
      forward:  one absolute value per element for |x - μ|          -> B·c abs
      backward: one signum per element, computed once and reused
                across all gradient terms                           -> B·c sign

Each appearance of a square/abs/sign/root counts once per element per step;
values cached and reused are not recounted.  Inference applies one multiply-add
per element, so its per-element count of these four ops is zero.  Its fold of
the running statistics and γ/β into one (scale, shift) pair is a per-feature
term, counted like the training root: ``inference_scale_shift`` builds it, with
c squares and c roots (sqrt(σ²+ε)) for L2 and none for L1.  ``bn_forward_infer``
folds on each call; the trainer's ``accuracy`` folds once per call, into the
weights of the dense layer before each BN layer.  Neither keeps the pair, since
SGD updates γ, β and the running statistics in place.

Per-op weights default to measured FPGA costs, time and power per op.  The
root is a per-feature term, B times rarer than the per-element ops, so reports
exclude it from the weighted totals by default; with that convention the
dominant-term comparison is one square (3 ns, 15 µW) against one sign + one
abs (2 ns, 8 µW): a 1.5x time ratio and a 7/15 ≈ 46.7% power saving,
independent of architecture.

An architecture is a list of layer shapes, read from a file of `name m h w c`
lines.  Every layer is counted under both norms, so a layer names no mode.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .batchnorm import BnMode

OP_NAMES = ("sign", "abs", "square", "root")


def _check_weight(label: str, value) -> None:
    """Raise ValueError, prefixed with ``label``, unless ``value`` is a valid op
    weight: an int or float, not a bool, finite and at least 0."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not math.isfinite(value)) or value < 0):
        raise ValueError(f"{label}: expected a finite nonnegative number, got {value!r}")


@dataclass(frozen=True)
class OpCost:
    time_ns: float
    power_uw: float

    def __post_init__(self):
        for f in dataclasses.fields(self):
            _check_weight(f.name, getattr(self, f.name))


@dataclass(frozen=True)
class OpCosts:
    """Per-op hardware weights; defaults are the measured FPGA costs of 32-bit float ops."""

    sign: OpCost = OpCost(time_ns=1.0, power_uw=2.0)
    abs: OpCost = OpCost(time_ns=1.0, power_uw=6.0)
    square: OpCost = OpCost(time_ns=3.0, power_uw=15.0)
    root: OpCost = OpCost(time_ns=28.0, power_uw=40.0)

    @classmethod
    def from_json(cls, path, include_root: bool = True) -> "OpCosts":
        """Load overrides from JSON: {"sign": {"time_ns": ..., "power_uw": ...}, ...}.

        Raises ValueError, prefixed with ``path``, naming bytes that are not UTF-8,
        text that is not JSON, a key repeated within one object (JSON would keep
        only its last value), an unknown op or field, a value that is not a
        finite nonnegative number, or a ``root`` entry when ``include_root`` is
        off, since the weighted totals then read no root weight.
        """
        def unique_keys(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise ValueError(f"{path}: repeated key {key!r}")
                seen.add(key)
            return dict(pairs)

        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh, object_pairs_hook=unique_keys)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ValueError(f"{path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: expected a JSON object of per-op overrides, "
                             f"got a {type(raw).__name__}")
        kwargs = {}
        for op, fields in raw.items():
            if op not in OP_NAMES:
                raise ValueError(f"{path}: unknown op {op!r} (expected {', '.join(OP_NAMES)})")
            if not isinstance(fields, dict):
                raise ValueError(f"{path}: {op}: expected an object of fields, got {fields!r}")
            base = dataclasses.asdict(getattr(cls(), op))
            for name, value in fields.items():
                if name not in base:
                    raise ValueError(
                        f"{path}: {op}: unknown field {name!r} (expected {', '.join(base)})")
                _check_weight(f"{path}: {op}.{name}", value)
            base.update(fields)
            kwargs[op] = OpCost(**base)
        if "root" in kwargs and not include_root:
            raise ValueError(f"{path}: root weights are read only with --include-root")
        return cls(**kwargs)


@dataclass(frozen=True)
class LayerShape:
    """One normalized layer: batch m, spatial h x w (1 for dense), c features."""

    name: str
    m: int
    h: int
    w: int
    c: int

    def __post_init__(self):
        if min(self.m, self.h, self.w, self.c) <= 0:
            raise ValueError(f"layer {self.name!r}: all dimensions must be positive")

    @property
    def pooled(self) -> int:
        return self.m * self.h * self.w


def count_ops(shape: LayerShape, mode: BnMode, training: bool = True) -> dict[str, int]:
    """Exact op counts for one step of one layer under the given norm."""
    counts = dict.fromkeys(OP_NAMES, 0)
    if not training:
        if mode is BnMode.L2:  # the fold's sqrt(σ²+ε); then a fused multiply-add only
            counts["square"] = counts["root"] = shape.c
        return counts
    per_feature = shape.pooled * shape.c
    if mode is BnMode.L2:
        counts["square"] = per_feature
        counts["root"] = 2 * shape.c  # sqrt(var) and sqrt(var+ε), both in the forward
    else:
        counts["abs"] = per_feature
        counts["sign"] = per_feature
    return counts


def weigh(counts: dict[str, int], costs: OpCosts,
          include_root: bool = True) -> dict[str, float]:
    """Weighted time (ns) and power (µW) totals for a count vector; no other field weighs.

    A total beyond float64's range is inf, and so is each total of a count beyond it.
    """
    ops = [op for op in OP_NAMES if include_root or op != "root"]
    try:
        return {
            "time_ns": float(sum(counts[op] * getattr(costs, op).time_ns for op in ops)),
            "power_uw": float(sum(counts[op] * getattr(costs, op).power_uw for op in ops)),
        }
    except OverflowError:  # a count too large for a float enters both sums
        return dict.fromkeys(("time_ns", "power_uw"), math.inf)


@dataclass
class LayerCost:
    shape: LayerShape
    counts_l2: dict[str, int]
    counts_l1: dict[str, int]
    weighted_l2: dict[str, float]
    weighted_l1: dict[str, float]


@dataclass
class CostProfile:
    """Both-norm comparison for a whole architecture."""

    layers: list[LayerCost]
    totals_l2: dict[str, float]
    totals_l1: dict[str, float]
    counts_l2: dict[str, int]
    counts_l1: dict[str, int]
    time_ratio_l2_over_l1: float
    power_saving_fraction: float
    include_root: bool

    @property
    def power_saving_pct(self) -> float:
        return self.power_saving_fraction * 100.0

    @property
    def power_saving_pct_round10(self) -> float:
        """Headline figure rounded to the nearest ten percent."""
        return round(self.power_saving_pct / 10.0) * 10.0

    def to_dict(self) -> dict:
        """The profile's fields and its two percentages; each layer is its
        ``LayerShape``'s fields and then its other ``LayerCost`` fields."""
        layers = [{**vars(lc.shape), **vars(lc)} for lc in self.layers]
        for layer in layers:
            del layer["shape"]
        return {**vars(self), "layers": layers, "power_saving_pct": self.power_saving_pct,
                "power_saving_pct_round10": self.power_saving_pct_round10}


def model_report(layers: list[LayerShape], costs: OpCosts = OpCosts(),
                 include_root: bool = False) -> CostProfile:
    """Per-layer and total time/power under both norms for one architecture.

    Raises ValueError when a total overflows float64, and when L1's total time
    or L2's total power is zero, since the time ratio or the power saving would
    then divide by it.  Weights are nonnegative, so finite totals leave every
    layer's figures finite too.
    """
    layer_costs = []
    for shape in layers:
        c2 = count_ops(shape, BnMode.L2)
        c1 = count_ops(shape, BnMode.L1)
        layer_costs.append(LayerCost(
            shape=shape,
            counts_l2=c2,
            counts_l1=c1,
            weighted_l2=weigh(c2, costs, include_root),
            weighted_l1=weigh(c1, costs, include_root),
        ))
    counts_l2 = {op: sum(lc.counts_l2[op] for lc in layer_costs) for op in OP_NAMES}
    counts_l1 = {op: sum(lc.counts_l1[op] for lc in layer_costs) for op in OP_NAMES}
    totals_l2 = weigh(counts_l2, costs, include_root)
    totals_l1 = weigh(counts_l1, costs, include_root)
    for norm, totals in (("L2", totals_l2), ("L1", totals_l1)):
        for field, value in totals.items():
            if not math.isfinite(value):
                raise ValueError(f"{norm} total {field} overflows float64")
    if not totals_l1["time_ns"]:
        raise ValueError("L1 total time_ns is 0, so the L2/L1 time ratio is undefined")
    if not totals_l2["power_uw"]:
        raise ValueError("L2 total power_uw is 0, so the power saving is undefined")
    time_ratio = totals_l2["time_ns"] / totals_l1["time_ns"]
    saving = 1.0 - totals_l1["power_uw"] / totals_l2["power_uw"]
    return CostProfile(
        layers=layer_costs,
        totals_l2=totals_l2,
        totals_l1=totals_l1,
        counts_l2=counts_l2,
        counts_l1=counts_l1,
        time_ratio_l2_over_l1=time_ratio,
        power_saving_fraction=saving,
        include_root=include_root,
    )


def parse_architecture(path) -> list[LayerShape]:
    """Read a flat architecture file: one layer per line, `name m h w c`.

    Blank lines and `#` comments are skipped.  Errors carry the path and, past
    decoding, the line number; a file with no layer line is an error too.
    """
    layers = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 5:
                raise ValueError(
                    f"{path}:{lineno}: expected `name m h w c`, got {len(parts)} fields"
                )
            name, *dims = parts
            try:
                dims = [int(v) for v in dims]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer dimension: {exc}") from None
            try:
                layers.append(LayerShape(name, *dims))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not layers:
        raise ValueError(f"{path}: no layers")
    return layers
