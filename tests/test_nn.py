import math

import numpy as np
import pytest

import riskrnn.autodiff as ad
from riskrnn.autodiff import Tape
from riskrnn.nn import (LstmState, ParamMatrix, ParameterStore, TrainingError,
                        adam_step, dense, finite_diff_check, init_params,
                        load_params, lstm_step, lstm_zero_state, save_params)


def store_from_arrays(**named):
    store = ParameterStore()
    for name, values in named.items():
        store.add(ParamMatrix(name, np.asarray(values, dtype=np.float64)))
    return store


class TestInitParams:
    def test_deterministic(self):
        a = init_params([("geom_fc_W", 9, 16)], seed=7)
        b = init_params([("geom_fc_W", 9, 16)], seed=7)
        assert np.array_equal(a["geom_fc_W"].values, b["geom_fc_W"].values)

    def test_uniform_bound(self):
        store = init_params([("big", 100, 100)], seed=3)
        bound = math.sqrt(6.0 / 200.0)
        assert np.all(np.abs(store["big"].values) <= bound)

    def test_lstm_forget_bias_is_ones(self):
        store = init_params([("agent_rnn_b", 16, 1)], seed=0)
        b = store["agent_rnn_b"].values[:, 0]
        assert np.all(b[4:8] == 1.0)
        # other quarters keep their random draw
        assert not np.all(b[0:4] == 1.0)

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            init_params([("w", 2, 2), ("w", 3, 3)], seed=0)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            init_params([("w", 0, 2)], seed=0)


class TestDense:
    def test_identity(self):
        store = store_from_arrays(w=np.eye(3))
        tape = Tape()
        out = dense(tape, store["w"], tape.const([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.value, [1, 2, 3])

    def test_zero_weight(self):
        store = store_from_arrays(w=np.zeros((2, 3)))
        tape = Tape()
        out = dense(tape, store["w"], tape.const([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.value, [0, 0])

    def test_hand_product_with_bias(self):
        store = store_from_arrays(w=[[1, 2], [3, 4]], b=[[0.5], [-0.5]])
        tape = Tape()
        out = dense(tape, store["w"], tape.const([1.0, 1.0]), store["b"])
        np.testing.assert_allclose(out.value, [3.5, 6.5])

    def test_shape_mismatch(self):
        store = store_from_arrays(w=np.ones((2, 3)))
        tape = Tape()
        with pytest.raises(ValueError):
            dense(tape, store["w"], tape.const(np.ones(4)))


def reference_lstm_step(W, b, x, h, c):
    """Straight-line gate equations, independent of the tape ops."""
    H = W.shape[0] // 4
    z = W @ np.concatenate([x, h]) + b[:, 0]
    i = 1 / (1 + np.exp(-z[0:H]))
    f = 1 / (1 + np.exp(-z[H:2 * H]))
    g = np.tanh(z[2 * H:3 * H])
    o = 1 / (1 + np.exp(-z[3 * H:4 * H]))
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new


class TestLstmStep:
    def test_all_zero_parameters_and_state(self):
        store = store_from_arrays(w=np.zeros((8, 5)), b=np.zeros((8, 1)))
        tape = Tape()
        state = lstm_zero_state(tape, 2)
        out = lstm_step(tape, store["w"], store["b"], tape.const(np.ones(3)), state)
        np.testing.assert_allclose(out.hidden.value, 0.0)
        np.testing.assert_allclose(out.cell.value, 0.0)

    def test_memory_retention_with_saturated_gates(self):
        # zero weights; forget bias huge, input bias hugely negative
        b = np.zeros((8, 1))
        b[2:4] = 30.0   # forget gate -> 1
        b[0:2] = -30.0  # input gate -> 0
        store = store_from_arrays(w=np.zeros((8, 5)), b=b)
        tape = Tape()
        cell = np.array([0.7, -0.3])
        state = LstmState(tape.const(np.zeros(2)), tape.const(cell))
        out = lstm_step(tape, store["w"], store["b"], tape.const(np.ones(3)), state)
        np.testing.assert_allclose(out.cell.value, cell, atol=1e-12)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(11)
        W = rng.normal(scale=0.5, size=(12, 7))
        b = rng.normal(scale=0.5, size=(12, 1))
        x = rng.normal(size=4)
        h = rng.normal(size=3)
        c = rng.normal(size=3)
        store = store_from_arrays(w=W, b=b)
        tape = Tape()
        out = lstm_step(tape, store["w"], store["b"], tape.const(x),
                        LstmState(tape.const(h), tape.const(c)))
        ref_h, ref_c = reference_lstm_step(W, b, x, h, c)
        np.testing.assert_allclose(out.hidden.value, ref_h, atol=1e-12)
        np.testing.assert_allclose(out.cell.value, ref_c, atol=1e-12)

    def test_shape_mismatch(self):
        store = store_from_arrays(w=np.zeros((8, 5)), b=np.zeros((8, 1)))
        tape = Tape()
        with pytest.raises(ValueError):
            lstm_step(tape, store["w"], store["b"], tape.const(np.ones(9)),
                      lstm_zero_state(tape, 2))


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        store = store_from_arrays(w=[[1.0, 2.0]])
        adam_step(store, lr=0.1, t=1)
        np.testing.assert_allclose(store["w"].values, [[1.0, 2.0]])

    def test_first_step_with_unit_gradient(self):
        store = store_from_arrays(w=[[0.0]])
        store["w"].grad[...] = 1.0
        adam_step(store, lr=0.1, t=1)
        # bias correction makes the first update -lr * 1/(1 + eps)
        assert store["w"].values[0, 0] == pytest.approx(-0.1, abs=1e-8)

    def test_two_step_trace_matches_hand_computation(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        store = store_from_arrays(w=[[1.0]])
        theta = 1.0
        m = v = 0.0
        for t in (1, 2):
            g = 2.0 * theta  # gradient of theta^2
            store["w"].grad[...] = g
            adam_step(store, lr=lr, beta1=b1, beta2=b2, eps=eps, t=t)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
            assert store["w"].values[0, 0] == pytest.approx(theta, abs=1e-12)

    def test_gradients_zeroed_after_step(self):
        store = store_from_arrays(w=[[1.0]])
        store["w"].grad[...] = 1.0
        adam_step(store, lr=0.1, t=1)
        assert np.all(store["w"].grad == 0.0)

    def test_non_finite_gradient_names_parameter(self):
        store = store_from_arrays(bad=[[1.0]])
        store["bad"].grad[...] = np.nan
        with pytest.raises(TrainingError, match="bad"):
            adam_step(store, lr=0.1, t=1)

    def test_step_index_must_be_positive(self):
        store = store_from_arrays(w=[[1.0]])
        with pytest.raises(ValueError):
            adam_step(store, lr=0.1, t=0)


class TestFiniteDiffCheck:
    def test_quadratic_is_nearly_exact(self):
        store = store_from_arrays(w=[[3.0]])

        def make_loss():
            tape = Tape()
            w = ad.flatten(tape.param(store["w"]))
            return tape, ad.pick(w * w, 0)

        assert finite_diff_check(store, make_loss) < 1e-9

    def test_dense_sigmoid_layer(self):
        rng = np.random.default_rng(13)
        store = store_from_arrays(w=rng.normal(size=(3, 4)), b=rng.normal(size=(3, 1)))
        x = rng.normal(size=4)

        def make_loss():
            tape = Tape()
            out = ad.sigmoid(dense(tape, store["w"], tape.const(x), store["b"]))
            return tape, ad.vsum(out)

        assert finite_diff_check(store, make_loss) < 1e-6


class TestSerialization:
    def roundtrip(self, tmp_path, store, config=None):
        path = tmp_path / "model.rrm"
        save_params(path, store, config)
        return load_params(path)

    def test_values_roundtrip_exactly(self, tmp_path):
        store = init_params([("a", 3, 5), ("agent_rnn_b", 8, 1)], seed=42)
        loaded, config = self.roundtrip(tmp_path, store)
        assert config == {}
        assert loaded.names() == store.names()
        for pm in store:
            assert np.array_equal(loaded[pm.name].values, pm.values)

    def test_config_header_roundtrip(self, tmp_path):
        store = init_params([("a", 2, 2)], seed=1)
        _, config = self.roundtrip(tmp_path, store,
                                   {"d_agent": 32, "lambdas": (0.6, 0.4),
                                    "use_memory": True})
        assert config == {"d_agent": "32", "lambdas": "0.6,0.4",
                          "use_memory": "true"}

    def test_checksum_detects_corruption(self, tmp_path):
        store = init_params([("a", 2, 2)], seed=1)
        path = tmp_path / "model.rrm"
        save_params(path, store)
        lines = path.read_text().splitlines()
        lines[2] = "0.5 0.5"  # overwrite one row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="checksum"):
            load_params(path)

    def test_file_without_its_checksum_line_is_truncated(self, tmp_path):
        store = init_params([("a", 2, 2), ("b", 1, 3)], seed=1)
        path = tmp_path / "model.rrm"
        save_params(path, store)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:lines.index("b 1 3")]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            load_params(path)

    def test_short_block_names_the_file(self, tmp_path):
        path = tmp_path / "model.rrm"
        path.write_text("RISKRNN-MODEL v1\na 2 2\n0.5 0.5\nchecksum 1\n")
        with pytest.raises(ValueError, match="line 2: ") as err:
            load_params(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bogus.rrm"
        path.write_text("NOT-A-MODEL\n")
        with pytest.raises(ValueError, match="RISKRNN-MODEL"):
            load_params(path)
