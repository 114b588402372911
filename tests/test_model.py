from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import riskrnn.autodiff as ad
from riskrnn.autodiff import Tape
from riskrnn.losses import SequenceTargets, total_loss
from riskrnn.model import (AgentTracks, ModelConfig, ModelOutput, RiskModel,
                           agent_rnn_step, anticipate_step, forward_video,
                           param_specs, pool_regions, score_regions, variant_config)

import oracles
from oracles import Box
from helpers import (TINY_CONFIG, agent_tracks, padded_negative, random_box, random_targets,
                     random_video, split_of, tiny_model, video, zeroed_model)


def random_regions(rng, n_frames, n_regions, d_feat):
    """(T, N, 4) region boxes and (T, N, D) features, drawn frame by frame."""
    frames = [([random_box(rng) for _ in range(n_regions)], rng.normal(size=(n_regions, d_feat)))
              for _ in range(n_frames)]
    return tuple(np.array(part) for part in zip(*frames))


def feats_first(region_feat):
    """One video's (T, N, D) region features as the model reads them when it
    runs the video alone, (D, T, N)."""
    return np.moveaxis(np.asarray(region_feat, dtype=np.float64), 2, 0)


def box_columns(boxes):
    return np.array(boxes).reshape(-1, 4).T


def reference_levels(ref):
    """The per-frame reference's levels as ``ModelOutput.levels`` holds them:
    per level, the (T, 2) distributions and the (T, N) region scores."""
    hops = [([r["hops"][n][1] for r in ref], [r["hops"][n][2] for r in ref])
            for n in range(len(ref[0]["hops"]))]
    return [([r["y"] for r in ref], [r["s"] for r in ref])] + hops


def constant_output(tape, levels, lambdas) -> ModelOutput:
    """A ModelOutput of constant levels, each given as its (C, 2)
    distributions and (C, N) region scores."""
    return ModelOutput([(tape.const(np.transpose(y)), tape.const(s)) for y, s in levels],
                       None, lambdas)


class TestConfig:
    def test_variants(self):
        base = ModelConfig()
        assert variant_config(base, "RA").variant == "RA"
        assert variant_config(base, "RAI").variant == "RAI"
        assert variant_config(base, "L-RA").variant == "L-RA"
        assert variant_config(base, "L-RAI").variant == "L-RAI"

    def test_memoryless_variants_have_no_rnn_blocks(self):
        for variant in ("RA", "RAI"):
            names = [name for name, _, _ in param_specs(variant_config(ModelConfig(), variant))]
            assert not any("rnn" in n for n in names)

    def test_no_imagination_variants_drop_the_head(self):
        names = [name for name, _, _ in param_specs(variant_config(ModelConfig(), "L-RA"))]
        assert "imagine_head_W" not in names

    def test_lambda_length_enforced(self):
        with pytest.raises(ValueError):
            ModelConfig(imagine_steps=2, lambdas=(0.6, 0.4)).validate()

    def test_lambdas_must_be_convex(self):
        with pytest.raises(ValueError):
            ModelConfig(lambdas=(0.6, 0.6)).validate()

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            variant_config(ModelConfig(), "L-R*CNN")


class TestTapeGeometry:
    def test_relative_config_matches_scalar_version(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            agent = random_box(rng)
            region_box, region_feat = random_regions(rng, 1, 5, 3)
            tape = Tape()
            got = ad.relative_config(tape.const(box_columns([agent])), region_box)
            want = np.stack([oracles.relative_config(Box(*agent), r)
                             for r in oracles.boxes(region_box[0])], axis=1)
            np.testing.assert_allclose(got.value[:, 0], want, rtol=1e-12, atol=1e-12)

    def test_batched_relative_config_column_is_the_frame(self):
        rng = np.random.default_rng(22)
        region_box, region_feat = random_regions(rng, 6, 4, 3)
        agents = [random_box(rng) for _ in region_box]
        got = ad.relative_config(Tape().const(box_columns(agents)), region_box)
        assert got.value.shape == (9, 6, 4)
        for t, (agent, regions) in enumerate(zip(agents, region_box)):
            want = np.stack([oracles.relative_config(Box(*agent), r)
                             for r in oracles.boxes(regions)], axis=1)
            np.testing.assert_allclose(got.value[:, t], want, rtol=1e-12, atol=1e-12)

    def test_box_transform_matches_scalar_version(self):
        tape = Tape()
        p = tape.const([2.0, 3.0, 4.0, 5.0])
        c = tape.const([1.0, 0.0, 0.0, 0.0])
        out = ad.apply_box_transform(p, c)
        np.testing.assert_allclose(out.value, [6, 3, 4, 5])
        # one box per column
        cols = ad.apply_box_transform(tape.const([[2.0, 0.5], [3.0, 0.5], [4.0, 0.2], [5.0, 0.1]]),
                                      tape.const([[1.0, 0.0], [0.0, 0.5], [0.0, np.log(2.0)],
                                                  [0.0, 0.0]]))
        np.testing.assert_allclose(cols.value, [[6, 0.5], [3, 0.55], [4, 0.4], [5, 0.1]])

    def test_box_transform_range_check(self):
        # without memory the head reads the agent's appearance, and a 1.0 in
        # its first entry at the second frame asks for a width ratio of e^25
        cfg = variant_config(TINY_CONFIG, "RAI")
        model = zeroed_model(cfg)
        model.store["imagine_head_W"].values[2, 0] = 25.0
        sample = random_video(np.random.default_rng(25), cfg, 2, 3)
        feats = np.zeros_like(sample.agent_feat)
        feats[1, 0] = 1.0
        with pytest.raises(ValueError, match="log size ratios out of range"):
            model.forward_video(agent_tracks(replace(sample, agent_feat=feats)))


class TestScoreRegions:
    def test_zero_scorer_gives_half(self):
        model = zeroed_model(TINY_CONFIG)
        rng = np.random.default_rng(1)
        region_box, region_feat = random_regions(rng, 3, 4, TINY_CONFIG.d_region)
        tape = Tape()
        u = ad.relative_config(tape.const(box_columns([random_box(rng) for _ in range(3)])),
                               region_box)
        scores = score_regions(tape, model.store, tape.const(np.zeros((8, 3))), u,
                               feats_first(region_feat))
        assert scores.value.shape == (3, 4)
        np.testing.assert_allclose(scores.value, 0.5)

    def test_identical_regions_get_identical_scores(self):
        model = tiny_model(3)
        rng = np.random.default_rng(2)
        frames = []
        for _ in range(3):
            box, feat = random_box(rng), rng.normal(size=TINY_CONFIG.d_region)
            frames.append(([box, box], [feat, feat]))
        region_box, region_feat = (np.array(part) for part in zip(*frames))
        tape = Tape()
        u = ad.relative_config(tape.const(box_columns([random_box(rng) for _ in range(3)])),
                               region_box)
        scores = score_regions(tape, model.store, tape.const(rng.normal(size=(8, 3))), u,
                               feats_first(region_feat))
        np.testing.assert_array_equal(scores.value[:, 0], scores.value[:, 1])

    def test_sigmoid_of_logit(self):
        # doubling the appearance doubles the logit: sigmoid(2) -> sigmoid(4)
        assert 1 / (1 + np.exp(-2.0)) == pytest.approx(0.8808, abs=1e-4)
        assert 1 / (1 + np.exp(-4.0)) == pytest.approx(0.9820, abs=1e-4)


class TestPoolRegions:
    def test_zero_scores_give_zero_vector(self):
        rng = np.random.default_rng(3)
        _, region_feat = random_regions(rng, 2, 3, 4)
        tape = Tape()
        out = pool_regions(tape, tape.const(np.zeros((2, 3))), feats_first(region_feat))
        assert out.value.shape == (4, 2)
        np.testing.assert_allclose(out.value, 0.0)

    def test_single_region_full_weight(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(2, 4))
        tape = Tape()
        out = pool_regions(tape, tape.const(np.ones((2, 1))), feats_first(feats[:, None]))
        np.testing.assert_allclose(out.value, feats.T)

    def test_hand_weighted_sum(self):
        tape = Tape()
        out = pool_regions(tape, tape.const([[0.5, 0.5], [1.0, 0.25]]),
                           feats_first([[[1.0, 0.0], [0.0, 1.0]]] * 2))
        np.testing.assert_allclose(out.value, [[0.5, 1.0], [0.5, 0.25]])


class TestRecurrentSteps:
    def test_agent_rnn_matches_plain_lstm_on_concat_input(self):
        model = tiny_model(6)
        rng = np.random.default_rng(6)
        inputs = np.concatenate([rng.normal(size=(8, 5)),
                                 box_columns([random_box(rng) for _ in range(5)])])
        tape = Tape()
        got = agent_rnn_step(tape, model.store, inputs[:, :, None])
        state = (tape.const(np.zeros((8, 1))), tape.const(np.zeros((8, 1))))
        for t in range(5):
            state = ad.lstm(tape.param(model.store["agent_rnn_W"]),
                            tape.param(model.store["agent_rnn_b"]),
                            tape.const(inputs[:, t:t + 1]), state, 1)
            for swept, stepped in zip(got, state):
                np.testing.assert_allclose(swept.value[:, t:t + 1], stepped.value,
                                           rtol=1e-13, atol=1e-15)

    def test_zero_everything_gives_zero_code(self):
        model = zeroed_model(TINY_CONFIG)
        rng = np.random.default_rng(7)
        inputs = np.concatenate([np.zeros((8, 3)), box_columns([random_box(rng)] * 3)])
        hidden, _ = agent_rnn_step(Tape(), model.store, inputs[:, :, None])
        np.testing.assert_allclose(hidden.value, 0.0)

    def test_anticipate_zero_head_gives_half(self):
        model = zeroed_model(TINY_CONFIG)
        tape = Tape()
        _, _, y = anticipate_step(tape, model.store, TINY_CONFIG, None,
                                  tape.const(np.zeros((8, 3))), tape.const(np.ones((8, 3))), 1)
        np.testing.assert_allclose(y.value, 0.5)

    def test_y_sums_to_one(self):
        model = tiny_model(8)
        rng = np.random.default_rng(8)
        tape = Tape()
        code, pooled = tape.const(rng.normal(size=(8, 20))), tape.const(rng.normal(size=(8, 20)))
        state, _, y = anticipate_step(tape, model.store, TINY_CONFIG, None, code, pooled, 1)
        _, _, y_branch = anticipate_step(tape, model.store, TINY_CONFIG, state, code, pooled, 20)
        for probs in (y.value, y_branch.value):
            assert probs.shape == (2, 20)
            assert np.all(np.abs(probs.sum(axis=0) - 1.0) <= 1e-12)


class TestImagination:
    def test_zero_head_is_identity(self):
        # a zero transform leaves every box exactly where it is, so the hop
        # scores the regions from the observed boxes, bit for bit
        model = tiny_model(9)
        model.store["imagine_head_W"].values[...] = 0.0
        out = model.forward_video(agent_tracks(random_video(np.random.default_rng(9),
                                                            TINY_CONFIG, 3, 4)))
        assert not out.c_node.value.any()
        assert np.array_equal(out.levels[1][1].value, out.levels[0][1].value)

    def test_zero_head_reassessment_reproduces_observed_scores(self):
        # with a zero transform head every imagined box equals the observed
        # one, so every hop's region re-scoring reproduces the observed scores
        cfg = replace(TINY_CONFIG, imagine_steps=2, lambdas=(0.5, 0.3, 0.2))
        model = tiny_model(9, cfg)
        model.store["imagine_head_W"].values[...] = 0.0
        rng = np.random.default_rng(9)
        out = model.forward_video(agent_tracks(random_video(rng, cfg, 3, 4)))
        (_, s), *hops = out.levels
        assert len(hops) == 2
        for _, s_hat in hops:
            assert np.array_equal(s_hat.value, s.value)

    def test_zero_head_reassessment_memoryless_reproduces_y(self):
        # without memory the anticipation is a pure function of q, so an
        # identical imagined box reproduces y as well (with memory the hop
        # advances the branched recurrent state by one step by design)
        cfg = variant_config(TINY_CONFIG, "RAI")
        model = RiskModel.create(cfg, seed=9)
        model.store["imagine_head_W"].values[...] = 0.0
        rng = np.random.default_rng(9)
        out = model.forward_video(agent_tracks(random_video(rng, cfg, 3, 4)))
        (y, s), (y_hat, s_hat) = out.levels
        np.testing.assert_allclose(y_hat.value, y.value, atol=1e-12)
        np.testing.assert_allclose(s_hat.value, s.value, atol=1e-12)

    def test_committed_state_untouched_by_imagination(self):
        cfg_on = TINY_CONFIG
        cfg_off = variant_config(TINY_CONFIG, "L-RA")
        model = tiny_model(10)
        rng = np.random.default_rng(10)
        sample = random_video(rng, cfg_on, 4, 3)
        on = forward_video(model.store, cfg_on, agent_tracks(sample), Tape(train=False))
        off = forward_video(model.store, cfg_off, agent_tracks(sample), Tape(train=False))
        assert len(on.levels) == 2 and len(off.levels) == 1
        for on_node, off_node in zip(on.levels[0], off.levels[0]):
            assert np.array_equal(on_node.value, off_node.value)

    def test_two_step_recursion_chains_boxes(self):
        # the second hop starts from the first imagined box, as the per-frame
        # reference chains them
        cfg = ModelConfig(d_agent=8, d_region=8, d_u=6, h_agent=8, h_aa=8,
                          horizon=1, imagine_steps=2, lambdas=(0.5, 0.3, 0.2))
        model = RiskModel.create(cfg, seed=11)
        rng = np.random.default_rng(11)
        sample = random_video(rng, cfg, 2, 3)
        out = model.forward_video(agent_tracks(sample))
        assert len(out.levels) == 3
        y, s = out.levels[2]
        for t, ref in enumerate(oracles.forward(model.store, cfg, sample)):
            first, second = ref["hops"]
            assert second[0] != first[0]  # the hops moved the box twice
            np.testing.assert_allclose(s.value[t], second[2], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(y.value[:, t], second[1], rtol=1e-12, atol=1e-12)


class TestFusion:
    """``ModelOutput.y`` and ``.s``: the levels summed in level order, each
    times its weight."""

    def test_single_level_is_identity(self):
        y = np.array([[0.3, 0.7], [0.9, 0.1]])
        s = np.array([[0.2, 0.9, 0.4], [0.5, 0.6, 0.7]])
        out = constant_output(Tape(), [(y, s)], (1.0,))
        assert np.array_equal(out.y, y)
        assert np.array_equal(out.s, s)

    def test_hand_mixture(self):
        levels = [([[0.5, 0.5]], [[0.25]]), ([[0.0, 1.0]], [[1.0]]), ([[1.0, 0.0]], [[0.5]])]
        out = constant_output(Tape(), levels[:2], (0.6, 0.4))
        assert out.y[0, 1] == pytest.approx(0.7, abs=1e-12)
        assert out.s[0, 0] == pytest.approx(0.55, abs=1e-12)
        (y0, s0), (y1, s1), (y2, s2) = (map(np.array, level) for level in levels)
        three = constant_output(Tape(), levels, (0.5, 0.3, 0.2))
        assert np.array_equal(three.y, 0.5 * y0 + 0.3 * y1 + 0.2 * y2)
        assert np.array_equal(three.s, 0.5 * s0 + 0.3 * s1 + 0.2 * s2)

    def test_convex_combination_stays_a_distribution(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a, b = rng.dirichlet([1, 1], size=3), rng.dirichlet([1, 1], size=3)
            s_a, s_b = rng.uniform(size=(3, 4)), rng.uniform(size=(3, 4))
            out = constant_output(Tape(), [(a, s_a), (b, s_b)], (0.6, 0.4))
            assert np.array_equal(out.y, 0.6 * a + 0.4 * b)
            assert np.array_equal(out.s, 0.6 * s_a + 0.4 * s_b)
            assert np.all(np.abs(out.y.sum(axis=1) - 1.0) <= 1e-12)
            assert np.all(out.y >= 0.0)

    def test_weight_count_mismatch(self):
        # the model config checks the fusion weights once, before any fusion
        with pytest.raises(ValueError, match="fusion weights"):
            RiskModel.create(replace(TINY_CONFIG, lambdas=(0.5, 0.3, 0.2)), seed=0)


class TestForwardVideo:
    def test_zero_model_single_frame(self):
        model = zeroed_model(TINY_CONFIG)
        rng = np.random.default_rng(13)
        out = model.forward_video(agent_tracks(random_video(rng, TINY_CONFIG, 1, 4)))
        np.testing.assert_allclose(out.y, [[0.5, 0.5]])
        np.testing.assert_allclose(out.s, np.full((1, 4), 0.5))

    def test_empty_video_rejected(self):
        with pytest.raises(ValueError, match="at least one frame"):
            AgentTracks(np.empty((2, 0, 1)), np.empty((4, 0, 1)), np.empty((0, 3, 4)),
                        np.empty((2, 0, 3)))

    def test_frame_count_preserved(self):
        model = tiny_model(14)
        rng = np.random.default_rng(14)
        out = model.forward_video(agent_tracks(random_video(rng, TINY_CONFIG, 5, 3)))
        assert out.y.shape == (5, 2)
        assert out.s.shape == (5, 3)
        for y, s in out.levels:
            assert y.value.shape == (2, 5)
            assert s.value.shape == (5, 3)

    def test_region_permutation_equivariance(self):
        model = tiny_model(15)
        rng = np.random.default_rng(15)
        sample = random_video(rng, TINY_CONFIG, 3, 6)
        perm = rng.permutation(6)
        permuted = replace(sample, region_box=sample.region_box[:, perm],
                           region_feat=sample.region_feat[:, perm])
        a = model.forward_video(agent_tracks(sample))
        b = model.forward_video(agent_tracks(permuted))
        for (y_a, s_a), (y_b, s_b) in zip(a.levels, b.levels):
            np.testing.assert_allclose(s_b.value, s_a.value[:, perm], rtol=0, atol=1e-12)
            np.testing.assert_allclose(y_b.value, y_a.value, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.s, a.s[:, perm], rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.y, a.y, rtol=0, atol=1e-12)

    def test_probability_invariants_random_passes(self):
        rng = np.random.default_rng(16)
        for trial in range(25):
            model = tiny_model(100 + trial)
            out = model.forward_video(agent_tracks(random_video(rng, TINY_CONFIG, 2, 3)))
            y, s = out.levels[0]
            assert np.all(np.abs(y.value.sum(axis=0) - 1.0) <= 1e-12)
            assert np.all(np.abs(out.y.sum(axis=1) - 1.0) <= 1e-12)
            assert np.all((s.value > 0.0) & (s.value < 1.0))

    def test_translation_invariance_with_box_inputs_zeroed(self):
        # dyadic coordinates keep the translation arithmetic exact
        cfg = TINY_CONFIG
        model = tiny_model(17)
        model.store["agent_rnn_W"].values[:, cfg.d_agent:cfg.d_agent + 4] = 0.0
        rng = np.random.default_rng(17)

        def dyadic_box():
            return np.array([rng.integers(16, 48) / 64.0, rng.integers(16, 48) / 64.0,
                             rng.integers(4, 16) / 64.0, rng.integers(4, 16) / 64.0])

        state = np.random.default_rng(18)
        frames = []
        for _ in range(3):
            agent = dyadic_box()
            boxes = [dyadic_box() for _ in range(4)]
            feats = state.normal(size=(4, cfg.d_region))
            frames.append((agent, state.normal(size=cfg.d_agent), boxes, feats))
        agent_box, agent_feat, region_box, region_feat = map(np.array, zip(*frames))
        shift = np.array([0.25, 0.25, 0.0, 0.0])
        a = model.forward_video(agent_tracks(video(agent_box, agent_feat, region_box,
                                                   region_feat)))
        b = model.forward_video(agent_tracks(video(agent_box + shift, agent_feat,
                                                   region_box + shift, region_feat)))
        for a_node, b_node in zip(a.levels[0], b.levels[0]):
            assert np.array_equal(a_node.value, b_node.value)


class TestMatchesPerFrameReference:
    """The whole-video passes against the per-frame numpy reference."""

    @settings(max_examples=60, deadline=None)
    @given(variant=st.sampled_from(["RA", "RAI", "L-RA", "L-RAI"]),
           imagine_steps=st.sampled_from([1, 2]),
           n_frames=st.integers(1, 12), n_regions=st.integers(1, 8),
           horizon=st.integers(1, 4), positive=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_outputs_and_loss(self, variant, imagine_steps, n_frames, n_regions,
                              horizon, positive, seed):
        lambdas = (0.6, 0.4) if imagine_steps == 1 else (0.5, 0.3, 0.2)
        cfg = variant_config(replace(TINY_CONFIG, horizon=horizon, imagine_steps=imagine_steps,
                                     lambdas=lambdas), variant)
        rng = np.random.default_rng(seed)
        model = RiskModel.create(cfg, seed=seed)
        sample = random_targets(rng, random_video(rng, cfg, n_frames, n_regions), positive)
        tape = Tape()
        inputs = agent_tracks(sample)
        out = forward_video(model.store, cfg, inputs, tape)
        loss = total_loss(tape, out, SequenceTargets.of(split_of(sample), cfg.horizon, 1.0), [0]).total
        ref = oracles.forward(model.store, cfg, sample)
        ref_loss = oracles.total_loss(cfg, sample, ref)

        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

        for (y, s), (want_y, want_s) in zip(out.levels, reference_levels(ref), strict=True):
            close(y.value.T, want_y)
            close(s.value, want_s)
        close(out.y, [r["y_fused"] for r in ref])
        close(out.s, [r["s_fused"] for r in ref])
        if cfg.use_imagination:
            close(out.c_node.value.T, [r["c"] for r in ref])
        else:
            assert out.c_node is None
        close(loss.value, ref_loss)


class TestTracksAsColumns:
    """A K-track pass: each track's columns, t * K + k, against the per-frame
    reference run on that track alone."""

    @settings(max_examples=60, deadline=None)
    @given(variant=st.sampled_from(["RA", "RAI", "L-RA", "L-RAI"]),
           imagine_steps=st.sampled_from([1, 2]), n_tracks=st.integers(1, 6),
           n_frames=st.integers(1, 12), n_regions=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_each_track_matches_its_own_run(self, variant, imagine_steps, n_tracks,
                                             n_frames, n_regions, seed):
        lambdas = (0.6, 0.4) if imagine_steps == 1 else (0.5, 0.3, 0.2)
        cfg = variant_config(replace(TINY_CONFIG, imagine_steps=imagine_steps,
                                     lambdas=lambdas), variant)
        rng = np.random.default_rng(seed)
        model = RiskModel.create(cfg, seed=seed)
        shared = random_video(rng, cfg, n_frames, n_regions)
        tracks = []
        for _ in range(n_tracks):
            frames = [(rng.normal(size=cfg.d_agent), random_box(rng)) for _ in range(n_frames)]
            agent_feat, agent_box = map(np.array, zip(*frames))
            tracks.append(replace(shared, agent_box=agent_box, agent_feat=agent_feat))
        out = forward_video(model.store, cfg, agent_tracks(*tracks), Tape(train=False))

        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

        assert out.y.shape == (n_frames * n_tracks, 2)
        assert out.s.shape == (n_frames * n_tracks, n_regions)
        for k, track in enumerate(tracks):
            ref = oracles.forward(model.store, cfg, track)
            columns = slice(k, None, n_tracks)
            for (y, s), (want_y, want_s) in zip(out.levels, reference_levels(ref), strict=True):
                close(y.value.T[columns], want_y)
                close(s.value[columns], want_s)
            close(out.y[columns], [r["y_fused"] for r in ref])
            close(out.s[columns], [r["s_fused"] for r in ref])
            if cfg.use_imagination:
                close(out.c_node.value[:, columns].T, [r["c"] for r in ref])


def mixed_targets(rng, sample, positive: bool):
    """The video with an accident frame anywhere if positive and, at each
    frame, a risky box that is one of its regions or a random box; a
    negative has padding in its place, so a split of them shares one shape."""
    if not positive:
        return padded_negative(sample)
    risky = [[regions[rng.integers(len(regions))] if rng.random() < 0.5 else random_box(rng)]
             for regions in sample.region_box]
    return replace(sample, positive=True, t_accident=int(rng.integers(len(sample.agent_box))),
                   risky_box=np.array(risky))


class TestVideosAsSequences:
    """A batch of B videos as one pass, column t * B + b being video b at
    frame t: each video's loss against its one-video pass, and the gradient
    against the sum of the one-video gradients."""

    @settings(max_examples=60, deadline=None)
    @given(variant=st.sampled_from(["RA", "RAI", "L-RA", "L-RAI"]),
           imagine_steps=st.sampled_from([1, 2]), n_videos=st.integers(1, 5),
           positives=st.lists(st.booleans(), min_size=5, max_size=5),
           n_frames=st.integers(1, 12), n_regions=st.integers(1, 8),
           horizon=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    # per-video gradients of about -1.4, -17.3, 18.6 and -0.3 cancel to -0.42
    # in imagine_head_W[3, 5]; the batch's sum rounds them in another order
    @example(variant="RAI", imagine_steps=1, n_videos=4,
             positives=[False, True, False, True, False], n_frames=12, n_regions=8,
             horizon=1, seed=47596)
    def test_each_video_matches_its_own_pass(self, variant, imagine_steps, n_videos,
                                             positives, n_frames, n_regions, horizon, seed):
        lambdas = (0.6, 0.4) if imagine_steps == 1 else (0.5, 0.3, 0.2)
        cfg = variant_config(replace(TINY_CONFIG, horizon=horizon, imagine_steps=imagine_steps,
                                     lambdas=lambdas), variant)
        rng = np.random.default_rng(seed)
        model = RiskModel.create(cfg, seed=seed)
        videos = [random_video(rng, cfg, n_frames, n_regions) for _ in range(n_videos)]
        targets = SequenceTargets.of(split_of(*[mixed_targets(rng, sample, positive)
                                                for sample, positive in zip(videos, positives)]),
                                     cfg.horizon, 1.0)

        def run(batch, video_of):
            tape = Tape()
            out = forward_video(model.store, cfg, agent_tracks(*batch), tape)
            loss = total_loss(tape, out, targets, video_of)
            tape.backward(loss.total)
            grads = {pm.name: pm.grad.copy() for pm in model.store}
            model.store.grad.fill(0.0)
            return loss.per_sequence, grads

        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

        losses, grads = run(videos, np.arange(n_videos))
        alone = [run([sample], [b]) for b, sample in enumerate(videos)]
        close(losses, [loss[0] for loss, _ in alone])
        for name, grad in grads.items():
            # a sum of terms that cancel keeps their rounding, not its own:
            # bound each element's error by the magnitude of its terms
            terms = np.stack([video_grads[name] for _, video_grads in alone])
            error = np.abs(grad - terms.sum(axis=0))
            bound = 1e-12 * np.abs(terms).sum(axis=0) + 1e-12
            assert np.all(error <= bound), (name, np.max(error - bound))


class TestNodeCount:
    """Taped nodes of forward plus loss for a 12-frame, 8-region training
    video: the whole-video passes record a handful of nodes per pass, not per
    frame, so the count grows neither with the video nor with the videos of a
    batch."""

    @pytest.mark.parametrize("variant,count", [("RA", 26), ("RAI", 54),
                                               ("L-RA", 36), ("L-RAI", 67)])
    def test_exactly(self, variant, count):
        cfg = variant_config(TINY_CONFIG, variant)
        rng = np.random.default_rng(23)
        sample = random_targets(rng, random_video(rng, cfg, 12, 8), positive=True)
        tape = Tape()
        inputs = agent_tracks(sample)
        out = forward_video(RiskModel.create(cfg, seed=23).store, cfg, inputs, tape)
        total_loss(tape, out, SequenceTargets.of(split_of(sample), cfg.horizon, 1.0), [0])
        assert len(tape.nodes) == count

    @pytest.mark.parametrize("variant", ["RA", "RAI", "L-RA", "L-RAI"])
    def test_a_batch_records_as_many_nodes_as_one_video(self, variant):
        cfg = variant_config(TINY_CONFIG, variant)
        rng = np.random.default_rng(24)
        store = RiskModel.create(cfg, seed=24).store
        counts = []
        for n_videos in range(1, 6):
            videos = [random_video(rng, cfg, 12, 8) for _ in range(n_videos)]
            targets = SequenceTargets.of(
                split_of(*[random_targets(rng, sample, positive=True) if b % 2 == 0
                           else padded_negative(sample) for b, sample in enumerate(videos)]),
                cfg.horizon, 1.0)
            tape = Tape()
            out = forward_video(store, cfg, agent_tracks(*videos), tape)
            total_loss(tape, out, targets, np.arange(n_videos))
            counts.append(len(tape.nodes))
        assert counts == [counts[0]] * 5


class TestGradients:
    def test_full_model_matches_finite_differences(self):
        from helpers import finite_diff_check, gradcheck_fixture
        model = tiny_model(19)
        rng = np.random.default_rng(19)
        sample = gradcheck_fixture(rng, TINY_CONFIG, 3, 4, positive=True)
        inputs = agent_tracks(sample)
        targets = SequenceTargets.of(split_of(sample), TINY_CONFIG.horizon, 1.0)

        def make_loss():
            tape = Tape()
            preds = forward_video(model.store, TINY_CONFIG, inputs, tape)
            return tape, total_loss(tape, preds, targets, [0]).total

        assert finite_diff_check(model.store, make_loss) < 1e-4


# A model file as the first version of the format wrote it, variant line included.
EARLIER_FORMAT_RA = """RISKRNN-MODEL v1
variant = RA
d_agent = 1
d_region = 1
d_u = 1
h_agent = 1
h_aa = 1
horizon = 2
imagine_steps = 0
lambdas = 1.0
use_memory = false
use_imagination = false
geom_fc_W 1 9
0.25 0.5 0.75 1 1.25 1.5 1.75 2 2.25
geom_fc_b 1 1
2.5
scorer_fc_W 1 2
2.75 3
scorer_fc_b 1 1
3.25
accident_head_W 2 2
3.5 3.75
4 4.25
checksum 38.25
"""


class TestModelFiles:
    def saved_ra(self, tmp_path):
        path = tmp_path / "ra.rrm"
        RiskModel.create(variant_config(TINY_CONFIG, "RA"), seed=22).save(path)
        return path, path.read_text().splitlines()

    def test_earlier_format_loads_and_saves_unchanged(self, tmp_path):
        path = tmp_path / "old.rrm"
        path.write_text(EARLIER_FORMAT_RA)
        model = RiskModel.load(path)
        tiny = ModelConfig(d_agent=1, d_region=1, d_u=1, h_agent=1, h_aa=1, horizon=2)
        assert model.cfg == variant_config(tiny, "RA")
        assert model.store["accident_head_W"].values.tolist() == [[3.5, 3.75], [4.0, 4.25]]
        model.save(tmp_path / "again.rrm")
        assert (tmp_path / "again.rrm").read_text() == EARLIER_FORMAT_RA

    def test_file_cut_after_a_block_is_rejected(self, tmp_path):
        path, lines = self.saved_ra(tmp_path)
        cut = next(i for i, line in enumerate(lines) if line.startswith("geom_fc_b "))
        path.write_text("\n".join(lines[:cut]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            RiskModel.load(path)

    def test_one_changed_digit_fails_the_checksum(self, tmp_path):
        path, lines = self.saved_ra(tmp_path)
        row = next(i for i, line in enumerate(lines) if line.startswith("scorer_fc_W ")) + 1
        j = lines[row].index(".") + 1
        lines[row] = lines[row][:j] + "45"[lines[row][j] == "4"] + lines[row][j + 1:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="checksum mismatch"):
            RiskModel.load(path)

    def test_missing_config_key_names_the_file_and_the_key(self, tmp_path):
        path, lines = self.saved_ra(tmp_path)
        path.write_text("\n".join(line for line in lines if not line.startswith("h_aa ")))
        with pytest.raises(ValueError, match="missing config key 'h_aa'") as err:
            RiskModel.load(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_a_non_finite_config_value_names_the_file_and_the_key(self, tmp_path):
        path, lines = self.saved_ra(tmp_path)
        path.write_text("\n".join(lines).replace("lambdas = 1.0", "lambdas = nan"))
        with pytest.raises(ValueError, match="'nan' is not finite for key 'lambdas'") as err:
            RiskModel.load(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_parameters_must_be_the_ones_the_config_needs(self, tmp_path):
        path, lines = self.saved_ra(tmp_path)
        path.write_text("\n".join(lines).replace("use_memory = false", "use_memory = true"))
        with pytest.raises(ValueError, match="L-RA config needs"):
            RiskModel.load(path)

    def test_a_variant_line_other_than_the_config_is_rejected(self, tmp_path):
        path, lines = self.saved_ra(tmp_path)
        path.write_text("\n".join(lines).replace("variant = RA", "variant = L-RAI"))
        with pytest.raises(ValueError, match="variant 'L-RAI' is not the RA its config "
                                             "describes") as err:
            RiskModel.load(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_an_unknown_config_key_is_rejected(self, tmp_path):
        path, lines = self.saved_ra(tmp_path)
        path.write_text("\n".join(lines).replace("h_aa = ", "no_such_key = 3\nh_aa = "))
        with pytest.raises(ValueError, match="unknown config key 'no_such_key'") as err:
            RiskModel.load(path)
        assert str(err.value).startswith(f"{path}: ")


class TestSaveLoad:
    def test_roundtrip_preserves_forward(self, tmp_path):
        model = tiny_model(20)
        rng = np.random.default_rng(20)
        sample = random_video(rng, TINY_CONFIG, 3, 4)
        path = tmp_path / "model.rrm"
        model.save(path)
        loaded = RiskModel.load(path)
        assert loaded.cfg == model.cfg
        inputs = agent_tracks(sample)
        a, b = model.forward_video(inputs), loaded.forward_video(inputs)
        for a_node, b_node in zip(a.levels[0], b.levels[0]):
            assert np.array_equal(a_node.value, b_node.value)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.s, b.s)

    def test_variant_roundtrip(self, tmp_path):
        for variant in ("RA", "RAI", "L-RA", "L-RAI"):
            cfg = variant_config(TINY_CONFIG, variant)
            model = RiskModel.create(cfg, seed=21)
            path = tmp_path / f"{variant}.rrm"
            model.save(path)
            assert RiskModel.load(path).cfg.variant == variant
