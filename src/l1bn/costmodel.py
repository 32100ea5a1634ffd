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
term, counted like the training root: ``bn_forward_infer`` rebuilds it on every
call, which for L2 is c squares and c roots (sqrt(σ²+ε)) and for L1 none.  The
fold is not cached, since SGD updates γ and β in place.

Per-op weights default to measured FPGA costs (registers, DSP blocks, time,
power).  The root is a per-feature term, B times rarer than the per-element
ops, so reports exclude it from the weighted totals by default; with that
convention the dominant-term comparison is one square (3 ns, 15 µW) against
one sign + one abs (2 ns, 8 µW): a 1.5x time ratio and a 7/15 ≈ 46.7% power
saving, independent of architecture.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .batchnorm import BnMode

OP_NAMES = ("sign", "abs", "square", "root")


class ArchParseError(ValueError):
    """Malformed architecture file; message carries the line number."""


@dataclass(frozen=True)
class OpCost:
    registers: int
    dsp_blocks: int
    time_ns: float
    power_uw: float

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be nonnegative")


# measured FPGA overhead of the four scalar ops (32-bit float)
DEFAULT_OP_COSTS = {
    "sign": OpCost(registers=153, dsp_blocks=0, time_ns=1.0, power_uw=2.0),
    "abs": OpCost(registers=337, dsp_blocks=0, time_ns=1.0, power_uw=6.0),
    "square": OpCost(registers=407, dsp_blocks=1, time_ns=3.0, power_uw=15.0),
    "root": OpCost(registers=438, dsp_blocks=2, time_ns=28.0, power_uw=40.0),
}


@dataclass(frozen=True)
class OpCosts:
    """Per-op hardware weights; defaults are the measured FPGA numbers."""

    sign: OpCost = DEFAULT_OP_COSTS["sign"]
    abs: OpCost = DEFAULT_OP_COSTS["abs"]
    square: OpCost = DEFAULT_OP_COSTS["square"]
    root: OpCost = DEFAULT_OP_COSTS["root"]

    def cost_of(self, op: str) -> OpCost:
        return getattr(self, op)

    @classmethod
    def from_json(cls, path) -> "OpCosts":
        """Load overrides from JSON: {"sign": {"time_ns": ..., ...}, ...}.

        Raises ValueError naming an unknown op or field, or a value that is not
        a finite nonnegative number.
        """
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: expected a JSON object of per-op overrides, "
                             f"got a {type(raw).__name__}")
        kwargs = {}
        for op, fields in raw.items():
            if op not in OP_NAMES:
                raise ValueError(f"{path}: unknown op {op!r} (expected {', '.join(OP_NAMES)})")
            if not isinstance(fields, dict):
                raise ValueError(f"{path}: {op}: expected an object of fields, got {fields!r}")
            base = dataclasses.asdict(DEFAULT_OP_COSTS[op])
            for name, value in fields.items():
                if name not in base:
                    raise ValueError(
                        f"{path}: {op}: unknown field {name!r} (expected {', '.join(base)})")
                if (isinstance(value, bool) or not isinstance(value, (int, float))
                        or not math.isfinite(value) or value < 0):
                    raise ValueError(f"{path}: {op}.{name}: expected a finite "
                                     f"nonnegative number, got {value!r}")
            base.update(fields)
            kwargs[op] = OpCost(**base)
        return cls(**kwargs)


@dataclass(frozen=True)
class LayerShape:
    """One normalized layer: batch m, spatial h x w (1 for dense), c features."""

    name: str
    m: int
    h: int
    w: int
    c: int
    mode: BnMode = BnMode.L2

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
    """Weighted time (ns) and power (µW) totals for a count vector."""
    ops = [op for op in OP_NAMES if include_root or op != "root"]
    return {
        "time_ns": float(sum(counts[op] * costs.cost_of(op).time_ns for op in ops)),
        "power_uw": float(sum(counts[op] * costs.cost_of(op).power_uw for op in ops)),
    }


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
        return {
            "include_root": self.include_root,
            "counts_l2": self.counts_l2,
            "counts_l1": self.counts_l1,
            "totals_l2": self.totals_l2,
            "totals_l1": self.totals_l1,
            "time_ratio_l2_over_l1": self.time_ratio_l2_over_l1,
            "power_saving_fraction": self.power_saving_fraction,
            "power_saving_pct": self.power_saving_pct,
            "power_saving_pct_round10": self.power_saving_pct_round10,
            "layers": [
                {
                    "name": lc.shape.name,
                    "m": lc.shape.m,
                    "h": lc.shape.h,
                    "w": lc.shape.w,
                    "c": lc.shape.c,
                    "mode": lc.shape.mode.value,
                    "counts_l2": lc.counts_l2,
                    "counts_l1": lc.counts_l1,
                    "weighted_l2": lc.weighted_l2,
                    "weighted_l1": lc.weighted_l1,
                }
                for lc in self.layers
            ],
        }


def model_report(layers: list[LayerShape], costs: OpCosts = OpCosts(),
                 include_root: bool = False) -> CostProfile:
    """Per-layer and total time/power under both norms for one architecture."""
    layer_costs = []
    counts_l2 = dict.fromkeys(OP_NAMES, 0)
    counts_l1 = dict.fromkeys(OP_NAMES, 0)
    for shape in layers:
        c2 = count_ops(shape, BnMode.L2)
        c1 = count_ops(shape, BnMode.L1)
        for op in OP_NAMES:
            counts_l2[op] += c2[op]
            counts_l1[op] += c1[op]
        layer_costs.append(LayerCost(
            shape=shape,
            counts_l2=c2,
            counts_l1=c1,
            weighted_l2=weigh(c2, costs, include_root),
            weighted_l1=weigh(c1, costs, include_root),
        ))
    totals_l2 = weigh(counts_l2, costs, include_root)
    totals_l1 = weigh(counts_l1, costs, include_root)
    time_ratio = totals_l2["time_ns"] / totals_l1["time_ns"] if totals_l1["time_ns"] else 0.0
    saving = (1.0 - totals_l1["power_uw"] / totals_l2["power_uw"]
              if totals_l2["power_uw"] else 0.0)
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
    """Read a flat architecture file: one layer per line, `name m h w c mode`.

    Blank lines and `#` comments are skipped.  Errors carry the line number; a
    file with no layer line is an error too.
    """
    layers = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 6:
                raise ArchParseError(
                    f"{path}:{lineno}: expected `name m h w c mode`, got {len(parts)} fields"
                )
            name, m, h, w, c, mode = parts
            try:
                dims = [int(v) for v in (m, h, w, c)]
            except ValueError as exc:
                raise ArchParseError(f"{path}:{lineno}: non-integer dimension: {exc}") from None
            try:
                bn_mode = BnMode(mode.lower())
            except ValueError:
                raise ArchParseError(
                    f"{path}:{lineno}: unknown mode {mode!r} (expected l2, l1, or l1c)"
                ) from None
            try:
                layers.append(LayerShape(name, *dims, mode=bn_mode))
            except ValueError as exc:
                raise ArchParseError(f"{path}:{lineno}: {exc}") from None
    if not layers:
        raise ArchParseError(f"{path}: no layers")
    return layers
