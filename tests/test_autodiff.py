import gc
import weakref

import numpy as np
import pytest

import riskrnn.autodiff as ad
from riskrnn.autodiff import Tape
from riskrnn.model import ModelConfig, RiskModel, score_regions, variant_config

import helpers
import oracles
from oracles import Box


def numeric_gradient(fn, x, h=1e-6):
    """Central differences of a scalar function of one array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.shape[0]):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(x)
        flat[i] = orig - h
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return grad


def check_gradient(build, x0, tol=1e-6):
    """build(tape, leaf) must return a scalar node."""
    tape = Tape()
    leaf = helpers.leaf(tape, x0)
    loss = build(tape, leaf)
    tape.backward(loss)
    analytic = leaf.grad

    def value(x):
        t = Tape()
        return float(build(t, helpers.leaf(t, x)).value)

    numeric = numeric_gradient(value, np.array(x0, dtype=np.float64))
    np.testing.assert_allclose(analytic, numeric, rtol=tol, atol=tol)


class TestBasics:
    def test_scalar_product_gradient(self):
        tape = Tape()
        w = helpers.leaf(tape, 2.0)
        loss = w * 3.0
        tape.backward(loss)
        assert w.grad == pytest.approx(3.0)

    def test_sigmoid_gradient_at_zero(self):
        tape = Tape()
        w = helpers.leaf(tape, 0.0)
        loss = oracles.tape_sigmoid(w)
        tape.backward(loss)
        assert w.grad == pytest.approx(0.25, abs=1e-12)

    def test_sigmoid_of_a_huge_negative_logit_is_zero_without_a_warning(self):
        # exp(800) overflows; the suite turns the overflow warning into an error
        assert oracles.tape_sigmoid(Tape().const(-800.0)).value == 0.0

    def test_backward_requires_scalar(self):
        tape = Tape()
        v = helpers.leaf(tape, np.ones(3))
        with pytest.raises(ValueError):
            tape.backward(v)

    def test_backward_is_linear_in_the_loss(self):
        x0 = np.array([0.3, -1.2, 0.7])

        def grads(scale):
            tape = Tape()
            leaf = helpers.leaf(tape, x0)
            loss = ad.vsum(oracles.tape_sigmoid(leaf) * leaf) * scale
            tape.backward(loss)
            return leaf.grad

        np.testing.assert_allclose(grads(3.5), 3.5 * grads(1.0), rtol=1e-12)

    def test_seed_scales_gradients(self):
        tape = Tape()
        leaf = helpers.leaf(tape, np.array([1.0, 2.0]))
        loss = ad.vsum(leaf * leaf)
        tape.backward(loss, seed=0.5)
        np.testing.assert_allclose(leaf.grad, [1.0, 2.0])

    def test_reused_node_accumulates(self):
        tape = Tape()
        w = helpers.leaf(tape, 1.5)
        loss = w * 2.0 + w * 3.0
        tape.backward(loss)
        assert w.grad == pytest.approx(5.0)

    def test_a_gradient_shared_between_nodes_is_never_added_into(self):
        # add passes its output's gradient on to both operands as it is
        tape = Tape()
        x = helpers.leaf(tape, 1.5)
        y = x + x
        tape.backward(y)
        assert x.grad == 2.0
        assert y.grad == 1.0

    def test_constants_record_nothing(self):
        tape = Tape()
        a = tape.const(np.ones(4))
        b = oracles.tape_relu(a * 2.0 + 1.0)
        assert not b.requires_grad
        assert tape.nodes == []

    def test_inference_tape_records_nothing(self):
        tape = Tape(train=False)
        leaf = helpers.leaf(tape, np.ones(3))
        out = oracles.tape_sigmoid(leaf * 2.0)
        assert not out.requires_grad
        assert tape.nodes == []

    def test_determinism(self):
        def run():
            tape = Tape()
            leaf = helpers.leaf(tape, np.linspace(-1, 1, 7))
            loss = ad.vsum(ad.softmax(leaf) * oracles.tape_sigmoid(leaf))
            tape.backward(loss)
            return float(loss.value), leaf.grad.copy()

        v1, g1 = run()
        v2, g2 = run()
        assert v1 == v2
        assert np.array_equal(g1, g2)

    def test_released_tape_is_freed_without_the_cycle_collector(self):
        def backward_once(release):
            tape = Tape()
            leaf = helpers.leaf(tape, np.ones(3))
            tape.backward(ad.vsum(oracles.tape_sigmoid(leaf * 2.0)))
            if release:
                tape.release()
            return weakref.ref(tape)

        gc.disable()
        try:
            assert backward_once(release=False)() is not None  # a reference cycle
            assert backward_once(release=True)() is None
        finally:
            gc.enable()


class TestSoftmax:
    def test_uniform_on_equal_inputs(self):
        tape = Tape()
        out = ad.softmax(tape.const(np.zeros(2)))
        np.testing.assert_allclose(out.value, [0.5, 0.5])

    def test_probability_vector_under_large_inputs(self):
        rng = np.random.default_rng(0)
        tape = Tape()
        for _ in range(100):
            x = rng.uniform(-1e3, 1e3, size=rng.integers(2, 8))
            out = ad.softmax(tape.const(x)).value
            assert np.all(out >= 0.0)
            assert abs(out.sum() - 1.0) <= 1e-12

    def test_columns_are_independent_distributions(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5)) * 50.0
        tape = Tape()
        out = ad.softmax(tape.const(x)).value
        for t in range(5):
            np.testing.assert_array_equal(out[:, t], ad.softmax(tape.const(x[:, t])).value)
        weights = rng.normal(size=(3, 5))
        check_gradient(lambda t, v: ad.vsum(ad.softmax(v) * t.const(weights)),
                       rng.normal(size=(3, 5)))


class TestOpGradients:
    """Every primitive against central finite differences."""

    def test_elementwise_chain(self):
        check_gradient(
            lambda t, x: ad.vsum(oracles.tape_sigmoid(x) * oracles.tape_relu(x + 1.0)
                                 + ad.log(x * 0.3 + 1.0)),
            np.array([0.2, -0.7, 1.3]))

    def test_division_and_log(self):
        check_gradient(
            lambda t, x: ad.vsum(oracles.div(ad.log(x), x + 2.0)),
            np.array([0.5, 1.7, 3.0]))

    def test_matmul_matrix(self):
        rng = np.random.default_rng(6)
        w0 = rng.normal(size=(2, 3))
        m = rng.normal(size=(3, 5))
        check_gradient(
            lambda t, w: ad.vsum(oracles.tape_sigmoid(ad.matmul(w, t.const(m)))),
            w0)

    def test_broadcast_column_bias(self):
        rng = np.random.default_rng(7)
        b0 = rng.normal(size=(3, 1))
        m = rng.normal(size=(3, 4))
        check_gradient(
            lambda t, b: ad.vsum(oracles.tape_sigmoid(t.const(m) + b)),
            b0)

    def test_maximum_minimum(self):
        check_gradient(
            lambda t, x: ad.vsum(oracles.maximum(x, t.const(np.array([0.0, 1.0, -1.0])))
                                 + oracles.minimum(x * 2.0, t.const(np.array([0.5, 0.5, 0.5])))),
            np.array([0.4, -0.6, 1.2]))

    def test_smooth_l1(self):
        check_gradient(lambda t, x: ad.vsum(ad.smooth_l1(x)),
                       np.array([0.3, -0.4, 1.8, -2.5]))

    def test_softmax_pick(self):
        check_gradient(lambda t, x: oracles.pick(ad.softmax(x), 1),
                       np.array([0.1, 0.9, -0.4]))

    def test_shape_ops(self):
        def build(t, x):
            a = ad.vec_slice(x, 0, 2)
            b = ad.vec_slice(x, 2, 5)
            joined = ad.concat([a, b, a])
            columns = ad.reshape(ad.concat([joined, joined * 0.5]), (2, 7))
            repeated = oracles.repeat_cols(columns, 3)
            stacked = ad.concat([repeated, repeated * 0.5])
            weights = t.const(np.arange(84.0).reshape(4, 21) / 7)
            return ad.vsum(oracles.tape_sigmoid(stacked) * weights)
        check_gradient(build, np.array([0.3, -0.2, 0.8, 1.1, -0.5]))

    def test_repeat_cols_keeps_each_column_together(self):
        tape = Tape()
        out = oracles.repeat_cols(tape.const([[1.0, 2.0], [3.0, 4.0]]), 3)
        np.testing.assert_array_equal(out.value, [[1, 1, 1, 2, 2, 2], [3, 3, 3, 4, 4, 4]])

    def test_stack_rows_and_scalars(self):
        def build(t, x):
            rows = oracles.stack_rows([x, x * 2.0])
            picked = oracles.pick(rows, 1) * oracles.pick(x, 0) + oracles.pick(x, 2)
            return ad.vsum(rows) + oracles.dot(picked, picked)
        check_gradient(build, np.array([0.5, 1.5, -0.7]))

    def test_clip_interior_passes_gradient(self):
        check_gradient(lambda t, x: ad.vsum(ad.log(ad.clip(x, 1e-12, 1 - 1e-12))),
                       np.array([0.25, 0.5, 0.9]))

    def test_clip_boundary_blocks_gradient(self):
        tape = Tape()
        x = helpers.leaf(tape, np.array([2.0, 0.5]))
        loss = ad.vsum(ad.clip(x, 0.0, 1.0))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [0.0, 1.0])

    def test_matmul_shape_mismatch(self):
        tape = Tape()
        with pytest.raises(ValueError):
            ad.matmul(tape.const(np.ones((2, 3))), tape.const(np.ones((4, 2))))
        with pytest.raises(ValueError):  # a vector is a one-column matrix
            ad.matmul(tape.const(np.ones((2, 3))), tape.const(np.ones(3)))


def composed_relative_config(tape, agent, region_boxes):
    """Reference for ad.relative_config built from primitive ops."""
    cx, cy = oracles.pick(agent, 0), oracles.pick(agent, 1)
    w, h = oracles.pick(agent, 2), oracles.pick(agent, 3)
    inv_w, inv_h = oracles.div(tape.const(1.0), w), oracles.div(tape.const(1.0), h)
    rcx, rcy, rw, rh = np.moveaxis(region_boxes, 2, 0)
    r = {"cx": rcx, "cy": rcy, "w": rw, "h": rh, "x1": rcx - 0.5 * rw, "y1": rcy - 0.5 * rh,
         "x2": rcx + 0.5 * rw, "y2": rcy + 0.5 * rh, "area": rw * rh}
    r = {k: tape.const(v) for k, v in r.items()}
    ax1, ax2 = cx - 0.5 * w, cx + 0.5 * w
    ay1, ay2 = cy - 0.5 * h, cy + 0.5 * h
    iw = oracles.tape_relu(oracles.minimum(ax2, r["x2"]) - oracles.maximum(ax1, r["x1"]))
    ih = oracles.tape_relu(oracles.minimum(ay2, r["y2"]) - oracles.maximum(ay1, r["y1"]))
    inter = iw * ih
    iou = oracles.div(inter, w * h + r["area"] - inter)
    return oracles.stack_rows([
        (r["cx"] - cx) * inv_w, (r["cy"] - cy) * inv_h,
        (r["x1"] - cx) * inv_w, (r["y1"] - cy) * inv_h,
        (r["x2"] - cx) * inv_w, (r["y2"] - cy) * inv_h,
        r["w"] * inv_w, r["h"] * inv_h, iou,
    ])


def one_frame(boxes):
    """The (1, N, 4) region boxes of one column, as ad.relative_config reads them."""
    return np.array([boxes], dtype=np.float64)


class TestRelativeConfig:
    AGENT = np.array([[0.5], [0.5], [0.2], [0.3]])  # x in [0.4, 0.6], y in [0.35, 0.65]

    @pytest.mark.parametrize("box", [
        (0.58, 0.43, 0.16, 0.2),   # partial overlap, every edge clear of a tie
        (0.9, 0.1, 0.1, 0.1),      # no overlap
        (0.52, 0.48, 0.5, 0.6),    # region contains the agent
        (0.49, 0.52, 0.1, 0.12),   # agent contains the region
    ], ids=["partial_overlap", "no_overlap", "region_contains_agent",
            "agent_contains_region"])
    def test_agent_gradient_matches_finite_differences(self, box):
        regions = one_frame([box, (0.3, 0.74, 0.3, 0.1)])
        weights = np.random.default_rng(31).normal(size=(9, 1, 2))
        check_gradient(
            lambda t, x: ad.vsum(ad.relative_config(x, regions) * t.const(weights)),
            self.AGENT)

    def test_ties_route_like_the_primitive_ops(self):
        # dyadic boxes: agent x/y in [0.375, 0.625]; regions coincide with
        # the agent, share edges with it, or touch it along x or y
        regions = one_frame([(0.5, 0.5, 0.25, 0.25), (0.5625, 0.5, 0.125, 0.5),
                             (0.4375, 0.375, 0.375, 0.25), (0.75, 0.5, 0.25, 0.25),
                             (0.5, 0.75, 0.25, 0.25)])
        weights = np.random.default_rng(32).normal(size=(9, 1, 5))
        grads, values = [], []
        for op in (lambda t, x: ad.relative_config(x, regions),
                   lambda t, x: composed_relative_config(t, x, regions)):
            tape = Tape()
            agent = helpers.leaf(tape, [[0.5], [0.5], [0.25], [0.25]])
            out = op(tape, agent)
            tape.backward(ad.vsum(out * tape.const(weights)))
            values.append(out.value)
            grads.append(agent.grad)
        np.testing.assert_array_equal(values[0], values[1])
        np.testing.assert_allclose(grads[0], grads[1], rtol=1e-12, atol=1e-12)

    def test_batched_agent_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        sets = [[(0.58, 0.43, 0.16, 0.2), (0.9, 0.1, 0.1, 0.1)],
                [(0.52, 0.48, 0.5, 0.6), (0.3, 0.74, 0.3, 0.1)],
                [(0.49, 0.52, 0.1, 0.12), (0.55, 0.45, 0.2, 0.2)]]
        regions = np.array(sets)
        agents = np.array([self.AGENT[:, 0], [0.45, 0.55, 0.3, 0.25], [0.5, 0.5, 0.4, 0.4]]).T.copy()
        weights = rng.normal(size=(9, 3, 2))
        check_gradient(
            lambda t, x: ad.vsum(ad.relative_config(x, regions) * t.const(weights)),
            agents)
        # column t and its gradient are those of frame t on its own
        tape = Tape()
        batched = helpers.leaf(tape, agents)
        out = ad.relative_config(batched, regions)
        tape.backward(ad.vsum(out * tape.const(weights)))
        for t, boxes in enumerate(sets):
            single = Tape()
            agent = helpers.leaf(single, agents[:, t:t + 1])
            frame_out = ad.relative_config(agent, one_frame(boxes))
            single.backward(ad.vsum(frame_out * single.const(weights[:, t:t + 1])))
            np.testing.assert_array_equal(out.value[:, t:t + 1], frame_out.value)
            np.testing.assert_allclose(batched.grad[:, t:t + 1], agent.grad,
                                       rtol=1e-12, atol=1e-12)

    def test_one_node_on_a_leaf_and_none_on_a_constant(self):
        regions = one_frame([(0.58, 0.43, 0.16, 0.2)])
        tape = Tape()
        ad.relative_config(tape.const(self.AGENT), regions)
        assert tape.nodes == []
        ad.relative_config(helpers.leaf(tape, self.AGENT), regions)
        assert len(tape.nodes) == 2  # the leaf and the op


class TestRegionScores:
    # the op's inputs in order, the parameters by their model names
    NAMES = ("geom_fc_W", "geom_fc_b", "scorer_fc_W", "scorer_fc_b", "agent", "u")

    @staticmethod
    def inputs(rng, n_agent=5, d_u=3, d_region=4, columns=3, n_regions=2):
        return [rng.normal(size=(d_u, 9)), rng.normal(size=(d_u, 1)),
                rng.normal(size=(d_region, n_agent + d_u)), rng.normal(size=(d_region, 1)),
                rng.normal(size=(n_agent, columns)), rng.normal(size=(9, columns, n_regions))]

    @staticmethod
    def preactivations(geom_w, geom_b, scorer_w, scorer_b, agent, u):
        """The geometry embedding's and the classifier weights' inputs to
        their ReLUs, written out as one stacked product per region."""
        pre_embedded = np.einsum("kg,gcn->kcn", geom_w, u) + geom_b[:, :, None]
        joined = np.concatenate([np.broadcast_to(agent[:, :, None], agent.shape + u.shape[2:]),
                                 np.maximum(pre_embedded, 0.0)])
        return pre_embedded, np.einsum("rj,jcn->rcn", scorer_w, joined) + scorer_b[:, :, None]

    @pytest.mark.parametrize("which", range(6), ids=NAMES)
    def test_gradients_match_finite_differences(self, which):
        rng = np.random.default_rng(51)
        values = self.inputs(rng)
        # every ReLU input is at least 0.01 from its kink, so no central
        # difference of step 1e-6 crosses one
        assert min(np.abs(p).min() for p in self.preactivations(*values)) > 0.01
        feats = rng.normal(size=(4, 3, 2))
        weights = rng.normal(size=(3, 2))

        def build(t, x):
            nodes = [x if i == which else t.const(v) for i, v in enumerate(values)]
            return ad.vsum(ad.region_scores(*nodes, feats) * t.const(weights))
        check_gradient(build, values[which])

    @pytest.mark.parametrize("variant", ["RA", "L-RA"])
    @pytest.mark.parametrize("agent_recorded", [False, True], ids=["const agent", "agent leaf"])
    @pytest.mark.parametrize("u_recorded", [False, True], ids=["const u", "u leaf"])
    def test_matches_the_composition_of_primitive_ops(self, variant, agent_recorded,
                                                      u_recorded):
        cfg = variant_config(ModelConfig(), variant)
        rng = np.random.default_rng(52)
        columns, n_regions = 12, 8
        agent_boxes = np.array([helpers.random_box(rng) for _ in range(columns)]).T
        region_boxes = np.array([[helpers.random_box(rng) for _ in range(n_regions)]
                                 for _ in range(columns)])
        agent_code = rng.normal(size=(cfg.agent_code_dim, columns))
        region_feats = rng.normal(size=(cfg.d_region, columns, n_regions))
        weights = rng.normal(size=(columns, n_regions))
        runs = []
        for score in (score_regions, oracles.composed_region_scores):
            store = RiskModel.create(cfg, seed=52).store
            tape = Tape()
            boxes = helpers.leaf(tape, agent_boxes) if u_recorded else tape.const(agent_boxes)
            agent = helpers.leaf(tape, agent_code) if agent_recorded else tape.const(agent_code)
            u = ad.relative_config(boxes, region_boxes)
            out = score(tape, store, agent, u, region_feats)
            tape.backward(ad.vsum(out * tape.const(weights)))
            runs.append([out.value] + [pm.grad.copy() for pm in store
                                       if pm.name in self.NAMES] + [agent.grad, boxes.grad])
        for got, want in zip(*runs, strict=True):
            if want is None:  # a constant input's
                assert got is None
                continue
            # the two sum in different orders, so an entry where terms cancel
            # is bounded relative to its array's largest entry
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
        assert (runs[0][5] is None, runs[0][6] is None) == (not agent_recorded, not u_recorded)

    def test_a_huge_negative_logit_scores_zero_without_a_warning(self):
        # every classifier weight is relu(0 + 1) = 1 and every appearance
        # -1e3, so each logit is -4e3 and exp(-logit) overflows; the suite
        # turns the overflow warning into an error
        values = self.inputs(np.random.default_rng(54))
        values[2][...] = 0.0
        values[3][...] = 1.0
        tape = Tape()
        out = ad.region_scores(*map(tape.const, values), np.full((4, 3, 2), -1e3))
        np.testing.assert_array_equal(out.value, 0.0)

    def test_mismatched_shapes_are_named(self):
        values = self.inputs(np.random.default_rng(55))
        tape = Tape()
        with pytest.raises(ValueError, match="region_scores shape mismatch"):
            ad.region_scores(*map(tape.const, values), np.ones((4, 3, 5)))
        values[2] = values[2][:, 1:]  # one agent column short
        with pytest.raises(ValueError, match="region_scores shape mismatch"):
            ad.region_scores(*map(tape.const, values), np.ones((4, 3, 2)))


class TestBoxTransform:
    BOXES = np.array([[0.5, 0.3, 0.2, 0.1], [0.4, 0.6, 0.05, 0.3]]).T.copy()

    def test_matches_the_scalar_version_per_column(self):
        c = np.random.default_rng(41).normal(scale=0.5, size=(4, 2))
        tape = Tape()
        out = ad.apply_box_transform(tape.const(self.BOXES), tape.const(c)).value
        for t in range(2):
            want = oracles.apply_box_transform(Box(*self.BOXES[:, t]), c[:, t])
            np.testing.assert_allclose(out[:, t], oracles.as_array(want), rtol=1e-15)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(42)
        c = rng.normal(scale=0.5, size=(4, 2))
        weights = rng.normal(size=(4, 2))
        check_gradient(lambda t, x: ad.vsum(ad.apply_box_transform(t.const(self.BOXES), x)
                                            * t.const(weights)), c)
        check_gradient(lambda t, x: ad.vsum(ad.apply_box_transform(x, t.const(c))
                                            * t.const(weights)), self.BOXES)
