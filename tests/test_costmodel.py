import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1bn.batchnorm import BnMode
from l1bn.costmodel import (
    LayerShape,
    OpCost,
    OpCosts,
    count_ops,
    model_report,
    parse_architecture,
    weigh,
)


def layer(name="bn", m=256, h=1, w=1, c=100):
    return LayerShape(name, m, h, w, c)


class TestDefaults:
    def test_table_values(self):
        costs = OpCosts()
        assert costs.sign == OpCost(1.0, 2.0)
        assert costs.abs == OpCost(1.0, 6.0)
        assert costs.square == OpCost(3.0, 15.0)
        assert costs.root == OpCost(28.0, 40.0)

    def test_nonnegative_enforced(self):
        with pytest.raises(ValueError):
            OpCost(time_ns=-1.0, power_uw=1.0)

    # the rule OpCosts.from_json applies to each value it reads
    @pytest.mark.parametrize("value", [math.nan, math.inf, True, "1"],
                             ids=["nan", "inf", "bool", "string"])
    @pytest.mark.parametrize("field", ["time_ns", "power_uw"])
    def test_invalid_weight_names_its_field(self, field, value):
        weights = {"time_ns": 1.0, "power_uw": 1.0, field: value}
        with pytest.raises(ValueError) as exc:
            OpCost(**weights)
        assert str(exc.value) == f"{field}: expected a finite nonnegative number, got {value!r}"


class TestCountOps:
    def test_dense_l2_term_count(self):
        counts = count_ops(layer(), BnMode.L2)
        assert counts["square"] == 256 * 100  # one per squared deviation
        assert counts["root"] == 2 * 100      # √var and √(var+ε), both in the forward
        assert counts["sign"] == 0 and counts["abs"] == 0

    def test_dense_l1_term_count(self):
        counts = count_ops(layer(), BnMode.L1)
        assert counts["abs"] == 256 * 100
        assert counts["sign"] == 256 * 100
        assert counts["square"] == 0 and counts["root"] == 0

    def test_compensated_same_counts_as_plain(self):
        assert count_ops(layer(), BnMode.L1_COMPENSATED) == count_ops(layer(), BnMode.L1)

    def test_inference_counts_the_fold(self):
        # per feature, whatever the batch: L2 folds sqrt(σ²+ε), L1 only adds ε
        for m in (1, 256):
            assert count_ops(layer(m=m), BnMode.L2, training=False) == {
                "sign": 0, "abs": 0, "square": 100, "root": 100}
            for mode in (BnMode.L1, BnMode.L1_COMPENSATED):
                assert all(v == 0 for v in count_ops(layer(m=m), mode, training=False).values())

    def test_counts_linear_in_every_dimension(self):
        base_shape = layer(m=8, h=2, w=2, c=4)
        base = count_ops(base_shape, BnMode.L1)
        for field, factor in (("m", 2), ("h", 3), ("w", 5), ("c", 7)):
            grown = dataclasses.replace(base_shape,
                                        **{field: getattr(base_shape, field) * factor})
            counts = count_ops(grown, BnMode.L1)
            assert counts["abs"] == base["abs"] * factor
            assert counts["sign"] == base["sign"] * factor

    def test_positive_dimensions_required(self):
        with pytest.raises(ValueError):
            LayerShape("bad", 0, 1, 1, 4)


class TestWeigh:
    def test_single_op_comparison(self):
        costs = OpCosts()
        square = weigh({"sign": 0, "abs": 0, "square": 1, "root": 0}, costs)
        sign_abs = weigh({"sign": 1, "abs": 1, "square": 0, "root": 0}, costs)
        assert square["time_ns"] == 3.0 and sign_abs["time_ns"] == 2.0
        assert square["time_ns"] / sign_abs["time_ns"] == 1.5
        assert square["power_uw"] == 15.0 and sign_abs["power_uw"] == 8.0
        saving = 1.0 - sign_abs["power_uw"] / square["power_uw"]
        assert saving == pytest.approx(7.0 / 15.0)

    def test_zero_layers(self):
        with pytest.raises(ValueError, match="L1 total time_ns is 0"):
            model_report([])

    @pytest.mark.parametrize("override, message", [
        ({"sign": {"time_ns": 0}, "abs": {"time_ns": 0}},
         "L1 total time_ns is 0, so the L2/L1 time ratio is undefined"),
        ({"square": {"power_uw": 0}}, "L2 total power_uw is 0, so the power saving is undefined"),
    ], ids=["l1-time", "l2-power"])
    def test_zero_denominator_rejected(self, tmp_path, override, message):
        path = tmp_path / "costs.json"
        path.write_text(json.dumps(override))
        with pytest.raises(ValueError) as exc:
            model_report([layer()], OpCosts.from_json(path))
        assert str(exc.value) == message

    def test_zero_numerator_is_a_figure(self):
        # L2 free or L1 drawing no power are answers, not undefined ratios
        instant_square = OpCost(time_ns=0.0, power_uw=15.0)
        profile = model_report([layer()], OpCosts(square=instant_square))
        assert profile.time_ratio_l2_over_l1 == 0.0
        cold = OpCost(time_ns=1.0, power_uw=0.0)
        profile = model_report([layer()], OpCosts(sign=cold, abs=cold))
        assert profile.power_saving_fraction == 1.0


class TestModelReport:
    # hand-computed oracle for the toy architecture:
    #   fc:   m=256 h=1 w=1 c=100 -> B=256,  L2: 25600 sq + 200 root; L1: 25600 abs + 25600 sign
    #   conv: m=32  h=8 w=8 c=16  -> B=2048, L2: 32768 sq + 32 root;  L1: 32768 abs + 32768 sign
    TOY = [layer("fc", 256, 1, 1, 100), layer("conv", 32, 8, 8, 16)]

    def test_counts_match_hand_oracle(self):
        profile = model_report(self.TOY)
        assert profile.layers[0].counts_l2 == {"sign": 0, "abs": 0, "square": 25600, "root": 200}
        assert profile.layers[0].counts_l1 == {"sign": 25600, "abs": 25600, "square": 0, "root": 0}
        assert profile.layers[1].counts_l2 == {"sign": 0, "abs": 0, "square": 32768, "root": 32}
        assert profile.layers[1].counts_l1 == {"sign": 32768, "abs": 32768, "square": 0, "root": 0}
        assert profile.counts_l2["square"] == 25600 + 32768

    def test_weighted_totals_match_hand_oracle(self):
        profile = model_report(self.TOY, include_root=False)
        n = 25600 + 32768
        assert profile.totals_l2["time_ns"] == 3.0 * n
        assert profile.totals_l1["time_ns"] == 2.0 * n
        assert profile.totals_l2["power_uw"] == 15.0 * n
        assert profile.totals_l1["power_uw"] == 8.0 * n

    def test_root_omitted_ratios_exact(self):
        profile = model_report(self.TOY, include_root=False)
        assert profile.time_ratio_l2_over_l1 == 1.5
        assert profile.power_saving_fraction == pytest.approx(7.0 / 15.0, abs=1e-15)
        assert profile.power_saving_pct_round10 == 50.0

    def test_root_included_still_favors_l1(self):
        profile = model_report(self.TOY, include_root=True)
        assert profile.totals_l1["time_ns"] < profile.totals_l2["time_ns"]
        assert profile.totals_l1["power_uw"] < profile.totals_l2["power_uw"]
        assert profile.time_ratio_l2_over_l1 > 1.5  # roots only burden L2

    def test_doubling_batch_doubles_dominant_counts(self):
        p1 = model_report([layer(m=64)])
        p2 = model_report([layer(m=128)])
        assert p2.counts_l2["square"] == 2 * p1.counts_l2["square"]
        assert p2.counts_l1["abs"] == 2 * p1.counts_l1["abs"]

    @given(st.lists(st.tuples(st.integers(1, 64), st.integers(1, 8),
                              st.integers(1, 8), st.integers(1, 32)),
                    min_size=1, max_size=5))
    @settings(max_examples=50)
    def test_l1_cheaper_for_any_architecture(self, dims):
        layers = [LayerShape(f"l{i}", m, h, w, c) for i, (m, h, w, c) in enumerate(dims)]
        for include_root in (False, True):
            profile = model_report(layers, include_root=include_root)
            assert profile.totals_l1["time_ns"] < profile.totals_l2["time_ns"]
            assert profile.totals_l1["power_uw"] < profile.totals_l2["power_uw"]

    def test_custom_costs_change_totals_never_counts(self, tmp_path):
        override = tmp_path / "costs.json"
        override.write_text(json.dumps({"square": {"time_ns": 30.0}}))
        costs = OpCosts.from_json(override)
        assert costs.square.time_ns == 30.0
        assert costs.square.power_uw == 15.0  # untouched fields keep defaults
        base = model_report(self.TOY)
        custom = model_report(self.TOY, costs=costs)
        assert base.counts_l2 == custom.counts_l2
        assert base.counts_l1 == custom.counts_l1
        assert custom.totals_l2["time_ns"] == 10 * base.totals_l2["time_ns"]

    def test_root_entry_only_with_include_root(self, tmp_path):
        override = tmp_path / "costs.json"
        override.write_text(json.dumps({"sign": {"time_ns": 2.0}, "root": {"power_uw": 9.0}}))
        assert OpCosts.from_json(override).root.power_uw == 9.0
        with pytest.raises(ValueError) as exc:
            OpCosts.from_json(override, include_root=False)
        assert str(exc.value) == f"{override}: root weights are read only with --include-root"
        override.write_text(json.dumps({"sign": {"time_ns": 2.0}}))
        assert OpCosts.from_json(override, include_root=False).sign.time_ns == 2.0

    def test_profile_serializes(self):
        payload = model_report(self.TOY).to_dict()
        assert payload["time_ratio_l2_over_l1"] == 1.5
        assert len(payload["layers"]) == 2


class TestArchitectureFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "net.arch"
        path.write_text(
            "# toy network\n"
            "fc1   256 1 1 100\n"
            "\n"
            "conv1 32  8 8 16   # trailing comment\n"
        )
        layers = parse_architecture(path)
        assert layers == [LayerShape("fc1", 256, 1, 1, 100), LayerShape("conv1", 32, 8, 8, 16)]
        assert layers[1].pooled == 32 * 8 * 8

    def test_field_count_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.arch"
        path.write_text("fc1 256 1 1 100\nbroken 1 2\n")
        with pytest.raises(ValueError, match=":2: expected `name m h w c`, got 3 fields"):
            parse_architecture(path)

    def test_mode_column_rejected(self, tmp_path):
        # every layer is costed under both norms, so a sixth field has no meaning
        path = tmp_path / "old.arch"
        path.write_text("fc1 256 1 1 100\nconv1 32 8 8 16 l2\n")
        with pytest.raises(ValueError) as exc:
            parse_architecture(path)
        assert str(exc.value) == f"{path}:2: expected `name m h w c`, got 6 fields"

    def test_non_integer_dimension(self, tmp_path):
        path = tmp_path / "bad.arch"
        path.write_text("fc1 x 1 1 100\n")
        with pytest.raises(ValueError, match=":1: non-integer dimension"):
            parse_architecture(path)

    @pytest.mark.parametrize("text", ["", "\n", "# only a comment\n\n  # another\n"],
                             ids=["empty", "blank", "comments"])
    def test_no_layers_flagged(self, tmp_path, text):
        path = tmp_path / "empty.arch"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            parse_architecture(path)
        assert str(exc.value) == f"{path}: no layers"

    def test_nonpositive_dimension_flagged(self, tmp_path):
        path = tmp_path / "bad.arch"
        path.write_text("fc1 0 1 1 2\n")
        with pytest.raises(ValueError, match=":1: layer 'fc1': all dimensions must be positive"):
            parse_architecture(path)
