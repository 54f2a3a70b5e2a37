"""Tests for the integer fold of BN -> RPReLU -> RSign glue in plans.

A packed conv whose output only feeds glue and then the next packed
conv emits thresholded bits instead of floats.  The fold is exact by
construction, so every plan here is checked bit for bit against the
float oracle (the reference forward at the same minibatching): with
randomised glue parameters, across all three patch-pack paths, both
contraction strategies and both compile sources, when an edge must
fall back to the float glue, and after in-place parameter edits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bnn.layers import (
    AvgPool2d,
    BatchNorm2d,
    BinaryConv2d,
    Flatten,
    RPReLU,
    RSign,
)
from repro.bnn.model import Sequential
from repro.bnn.reactnet import build_small_bnn
from repro.deploy import load_compressed_model, save_compressed_model
from repro.infer import GlueFold, InferencePlan
from repro.infer.plan import fold_threshold


def glue_model(channels, stride, seed):
    """Three packed convs; two glue edges (BN+RPReLU, then RPReLU only)."""
    rng = np.random.default_rng(seed)
    c0, c1, c2 = channels
    model = Sequential(
        [
            RSign(c0),
            BinaryConv2d(c0, c1, 3, stride=stride, padding=1, rng=rng),
            BatchNorm2d(c1),
            RPReLU(c1),
            RSign(c1),
            BinaryConv2d(c1, c2, 1, stride=1, padding=0, rng=rng),
            RPReLU(c2),
            RSign(c2),
            BinaryConv2d(c2, c2, 3, stride=1, padding=1, rng=rng),
            BatchNorm2d(c2),
            AvgPool2d(),
            Flatten(),
        ],
        name="glue",
    )
    model.eval()
    return model


def randomise_glue(model, rng, negative_slopes=False):
    """Random BN (gamma of both signs and zero), RPReLU and RSign params."""
    for layer in model.layers:
        channels = getattr(layer, "channels", None)
        if isinstance(layer, BatchNorm2d):
            gamma = rng.normal(0.0, 1.5, channels)
            gamma[rng.random(channels) < 0.15] = 0.0
            layer.params["gamma"] = gamma.astype(np.float32)
            layer.params["beta"] = rng.normal(0, 2, channels).astype(np.float32)
            layer.running_mean = rng.normal(0, 4, channels).astype(np.float32)
            layer.running_var = rng.uniform(0.1, 30, channels).astype(
                np.float32
            )
        elif isinstance(layer, RPReLU):
            low = -1.0 if negative_slopes else 0.0
            layer.params["slope"] = rng.uniform(low, 1.0, channels).astype(
                np.float32
            )
            layer.params["shift_in"] = rng.normal(0, 2, channels).astype(
                np.float32
            )
            layer.params["shift_out"] = rng.normal(0, 2, channels).astype(
                np.float32
            )
        elif isinstance(layer, RSign):
            layer.params["shift"] = rng.normal(0, 1.5, channels).astype(
                np.float32
            )


def oracle(model, x, batch):
    return np.concatenate(
        [model.forward(x[i:i + batch]) for i in range(0, x.shape[0], batch)]
    )


def fold_steps(plan):
    return [step for step in plan.steps if getattr(step, "fold", None)]


# channel triples covering every pack path of the *folded* consumers:
# word-aligned (C divides 64), word-multiple (64 | C), row-tiled (other)
CHANNELS = [(8, 16, 32), (4, 64, 64), (3, 24, 48), (16, 40, 8)]


@settings(max_examples=50, deadline=None)
@given(
    channels=st.sampled_from(CHANNELS),
    stride=st.sampled_from([1, 2]),
    batch=st.integers(1, 7),
    total=st.integers(1, 7),
    strategy=st.sampled_from(["gemm", "popcount"]),
    source=st.sampled_from(["model", "artifact"]),
    negative_slopes=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_folded_plan_matches_float_oracle(
    tmp_path_factory, channels, stride, batch, total, strategy, source,
    negative_slopes, seed,
):
    rng = np.random.default_rng(seed)
    model = glue_model(channels, stride, seed)
    randomise_glue(model, rng, negative_slopes)
    x = rng.normal(0, 1, (total, channels[0], 8, 8)).astype(np.float32)
    if source == "artifact":
        path = tmp_path_factory.mktemp("fold") / "model.npz"
        save_compressed_model(model, path)
        plan = InferencePlan.from_artifact(path, strategy=strategy)
        model = load_compressed_model(path)
    else:
        plan = InferencePlan.from_model(model, strategy=strategy)
    assert len(fold_steps(plan)) == 2
    if not negative_slopes:
        # monotone glue always folds: BN of either sign, slope >= 0
        assert plan.num_folded_edges == 2
    assert np.array_equal(plan.run_batch(x, batch_size=batch),
                          oracle(model, x, batch))


def test_negative_slope_edge_falls_back_bit_exact():
    model = glue_model((8, 16, 32), 1, seed=3)
    prelu = model.layers[3]
    prelu.params["slope"][0] = -1.0  # |y| on channel 0: a V shape
    model.layers[4].params["shift"][0] = 1.5  # 0 in the middle, 1 outside
    plan = InferencePlan.from_model(model)
    first, second = fold_steps(plan)
    assert not first.folded and second.folded
    assert plan.num_folded_edges == 1
    labels = [label for kind, label in plan.describe() if kind != "float"]
    assert "not folded" in labels[0]
    assert "folded -> bits" in labels[1]
    x = np.random.default_rng(4).normal(0, 1, (5, 8, 8, 8)).astype(
        np.float32
    )
    assert np.array_equal(plan.run_batch(x), model.forward(x))


def test_in_place_glue_edits_refold():
    rng = np.random.default_rng(5)
    model = glue_model((8, 16, 32), 2, seed=5)
    plan = InferencePlan.from_model(model)
    x = rng.normal(0, 1, (4, 8, 8, 8)).astype(np.float32)
    assert np.array_equal(plan.run_batch(x), model.forward(x))
    norm, prelu, rsign = model.layers[2], model.layers[3], model.layers[4]
    # every mutation is in place: the arrays keep their identity
    norm.params["gamma"][:] = -norm.params["gamma"] * 2.0
    norm.running_mean[:] = 1.0
    prelu.params["shift_out"][:] = 0.25
    rsign.params["shift"][::2] = -0.5
    assert np.array_equal(plan.run_batch(x), model.forward(x))
    assert plan.num_folded_edges == 2
    prelu.params["slope"][:] = -0.5  # a V shape around the shift:
    rsign.params["shift"][:] = 20.0  # no longer monotone, falls back
    assert plan.num_folded_edges == 1
    assert np.array_equal(plan.run_batch(x), model.forward(x))
    prelu.params["slope"][:] = 0.5  # and folds again
    assert plan.num_folded_edges == 2
    assert np.array_equal(plan.run_batch(x), model.forward(x))


def test_training_mode_flip_keeps_fold_on_eval_semantics():
    rng = np.random.default_rng(6)
    model = glue_model((8, 16, 32), 1, seed=6)
    randomise_glue(model, rng)
    x = rng.normal(0, 1, (3, 8, 8, 8)).astype(np.float32)
    plan = InferencePlan.from_model(model)
    expected = model.forward(x)
    model.train()
    assert np.array_equal(plan.run_batch(x), expected)
    assert all(layer.training for layer in model.layers)


class TestFoldThreshold:
    def test_matches_exhaustive_table(self):
        rng = np.random.default_rng(7)
        channels, num_bits = 6, 27
        norm, prelu = BatchNorm2d(channels), RPReLU(channels)
        norm.eval()
        prelu.eval()
        norm.params["gamma"] = np.array(
            [1.0, -2.0, 0.0, 0.5, -0.1, 3.0], np.float32
        )
        norm.running_mean = rng.normal(0, 3, channels).astype(np.float32)
        shift = rng.normal(0, 1, channels).astype(np.float32)
        threshold = fold_threshold([norm, prelu], shift, num_bits, channels)
        assert threshold is not None
        assert threshold.flip is not None  # gamma < 0 channels descend
        levels = np.arange(-num_bits, num_bits + 1, 2).astype(np.float32)
        table = np.repeat(levels[None, None, :, None], channels, axis=1)
        expected = prelu.forward(norm.forward(table))[0, :, :, 0] >= shift[
            :, None
        ]
        got = (levels[None, :] >= threshold.at_least[:, None]) != (
            threshold.flip[:, None]
        )
        assert np.array_equal(got, expected)

    def test_two_transitions_do_not_fold(self):
        prelu = RPReLU(2)
        prelu.eval()
        prelu.params["slope"] = np.array([0.25, -1.0], np.float32)
        shift = np.array([0.0, 1.5], np.float32)
        assert fold_threshold([prelu], shift, 9, 2) is None

    def test_empty_glue_is_the_rsign_threshold(self):
        threshold = fold_threshold([], np.array([0.5, -20.0], np.float32), 9, 2)
        assert threshold.flip is None
        # y >= 0.5 first holds at y = 1; y >= -20 holds from y = -9 on
        assert threshold.at_least.tolist() == [1, -9]


def test_small_bnn_folds_every_inner_edge():
    model = build_small_bnn(
        in_channels=1, num_classes=4, image_size=16, channels=(16, 32),
        seed=7,
    )
    model.eval()
    plan = InferencePlan.from_model(model)
    assert plan.num_packed_steps == 4
    assert plan.num_folded_edges == 3  # the last conv feeds AvgPool
    assert all(isinstance(step.fold, GlueFold) for step in fold_steps(plan))
    # folded glue leaves the step list: only stem and head glue remain
    floats = [label for kind, label in plan.describe() if kind == "float"]
    assert floats.count("BatchNorm2d") == 2
    assert floats.count("RPReLU") == 2


@pytest.mark.parametrize("strategy", ["gemm", "popcount"])
def test_folded_output_is_bits(strategy):
    model = glue_model((8, 16, 32), 1, seed=8)
    plan = InferencePlan.from_model(model, strategy=strategy)
    x = np.random.default_rng(8).normal(0, 1, (2, 8, 6, 6)).astype(
        np.float32
    )
    first = fold_steps(plan)[0]
    bits = first.run(x)
    assert bits.dtype == np.uint8 and bits.shape == (2, 16, 6, 6)
    floats = model.layers[3].forward(
        model.layers[2].forward(
            model.layers[1].forward(model.layers[0].forward(x))
        )
    )
    expected = floats >= model.layers[4].params["shift"][None, :, None, None]
    assert np.array_equal(bits, expected.view(np.uint8))


def test_reactnet_folds_all_but_the_last_packed_conv():
    from repro.bnn.reactnet import build_reactnet

    plan = InferencePlan.from_model(build_reactnet(num_classes=10))
    assert plan.num_packed_steps == 26
    assert plan.num_folded_edges == 25
    packed = [step for step in plan.steps if step.kind == "packed_conv"]
    assert packed[-1].fold is None  # it feeds BN -> RPReLU -> AvgPool
    floats = [label for kind, label in plan.describe() if kind == "float"]
    assert floats.count("RPReLU") == 2  # the stem's and the last block's
