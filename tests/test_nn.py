import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskrnn.autodiff as ad
from riskrnn.autodiff import Tape
from riskrnn.nn import (ParamMatrix, ParameterStore, TrainingError, adam_step, init_params,
                        load_params, save_params)

import oracles
from helpers import finite_diff_check, leaf
from oracles import lstm_step as reference_lstm_step


def store_from_arrays(**named):
    store = ParameterStore((name, np.shape(values)) for name, values in named.items())
    for pm, values in zip(store, named.values()):
        pm.values[...] = values
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
        out = oracles.dense(tape, store["w"], tape.const([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(out.value, [[1], [2], [3]])

    def test_zero_weight(self):
        store = store_from_arrays(w=np.zeros((2, 3)))
        tape = Tape()
        out = oracles.dense(tape, store["w"], tape.const([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(out.value, [[0], [0]])

    def test_hand_product_with_bias(self):
        store = store_from_arrays(w=[[1, 2], [3, 4]], b=[[0.5], [-0.5]])
        tape = Tape()
        out = oracles.dense(tape, store["w"], tape.const([[1.0, 2.0], [1.0, 0.0]]), store["b"])
        np.testing.assert_allclose(out.value, [[3.5, 2.5], [6.5, 5.5]])

    def test_shape_mismatch(self):
        store = store_from_arrays(w=np.ones((2, 3)))
        tape = Tape()
        with pytest.raises(ValueError):
            oracles.dense(tape, store["w"], tape.const(np.ones((4, 1))))


def weight_and_bias(tape, store):
    """The tape nodes of the store's LSTM parameters ``w`` and ``b``."""
    return tape.param(store["w"]), tape.param(store["b"])


def zero_state(tape, hidden_dim, batch=1):
    return tape.const(np.zeros((hidden_dim, batch))), tape.const(np.zeros((hidden_dim, batch)))


class TestLstmStep:
    def test_all_zero_parameters_and_state(self):
        store = store_from_arrays(w=np.zeros((8, 5)), b=np.zeros((8, 1)))
        tape = Tape()
        hidden, cell = ad.lstm(*weight_and_bias(tape, store), tape.const(np.ones((3, 1))),
                               zero_state(tape, 2), 1)
        np.testing.assert_allclose(hidden.value, 0.0)
        np.testing.assert_allclose(cell.value, 0.0)

    def test_memory_retention_with_saturated_gates(self):
        # zero weights; forget bias huge, input bias hugely negative
        b = np.zeros((8, 1))
        b[2:4] = 30.0   # forget gate -> 1
        b[0:2] = -30.0  # input gate -> 0
        store = store_from_arrays(w=np.zeros((8, 5)), b=b)
        tape = Tape()
        cell = np.array([[0.7], [-0.3]])
        state = tape.const(np.zeros((2, 1))), tape.const(cell)
        _, out = ad.lstm(*weight_and_bias(tape, store), tape.const(np.ones((3, 1))), state, 1)
        np.testing.assert_allclose(out.value, cell, atol=1e-12)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(11)
        W = rng.normal(scale=0.5, size=(12, 7))
        b = rng.normal(scale=0.5, size=(12, 1))
        x = rng.normal(size=4)
        h = rng.normal(size=3)
        c = rng.normal(size=3)
        store = store_from_arrays(w=W, b=b)
        tape = Tape()
        hidden, cell = ad.lstm(*weight_and_bias(tape, store), tape.const(x[:, None]),
                               (tape.const(h[:, None]), tape.const(c[:, None])), 1)
        ref_h, ref_c = reference_lstm_step(W, b, x, h, c)
        np.testing.assert_allclose(hidden.value[:, 0], ref_h, atol=1e-12)
        np.testing.assert_allclose(cell.value[:, 0], ref_c, atol=1e-12)

    def test_shape_mismatch(self):
        store = store_from_arrays(w=np.zeros((8, 5)), b=np.zeros((8, 1)))
        tape = Tape()
        with pytest.raises(ValueError):
            ad.lstm(*weight_and_bias(tape, store), tape.const(np.ones((9, 1))),
                    zero_state(tape, 2), 1)
        with pytest.raises(ValueError):  # three inputs for two cells
            ad.lstm(*weight_and_bias(tape, store), tape.const(np.ones((3, 3))),
                    zero_state(tape, 2, batch=2), 2)

    def test_columns_are_independent_cells(self):
        rng = np.random.default_rng(12)
        W = rng.normal(scale=0.5, size=(12, 7))
        b = rng.normal(scale=0.5, size=(12, 1))
        x, h, c = rng.normal(size=(4, 5)), rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        store = store_from_arrays(w=W, b=b)
        tape = Tape()
        hidden, cell = ad.lstm(*weight_and_bias(tape, store), tape.const(x),
                               (tape.const(h), tape.const(c)), 5)
        for t in range(5):
            ref_h, ref_c = reference_lstm_step(W, b, x[:, t], h[:, t], c[:, t])
            np.testing.assert_allclose(hidden.value[:, t], ref_h, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(cell.value[:, t], ref_c, rtol=1e-13, atol=1e-15)


class TestLstmSweep:
    """``autodiff.lstm`` from no state, a sweep, against T chained steps."""

    def setup_method(self):
        rng = np.random.default_rng(14)
        self.W = rng.normal(scale=0.5, size=(12, 7))
        self.b = rng.normal(scale=0.5, size=(12, 1))
        self.x = rng.normal(size=(4, 6))
        self.gh, self.gc = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))

    def sweep(self, store, x_source):
        """x_source: an array, taken as a leaf, or a ParamMatrix."""
        tape = Tape()
        x = tape.param(x_source) if isinstance(x_source, ParamMatrix) else leaf(tape, x_source)
        hidden, cell = ad.lstm(*weight_and_bias(tape, store), x, None, 1)
        loss = (ad.vsum(hidden * tape.const(self.gh))
                + ad.vsum(cell * tape.const(self.gc)))
        return tape, loss, x

    def test_matches_chained_steps(self):
        store = store_from_arrays(w=self.W, b=self.b)
        tape, loss, x = self.sweep(store, self.x)
        tape.backward(loss)
        swept = float(loss.value), store["w"].grad.copy(), store["b"].grad.copy(), x.grad

        store.grad.fill(0.0)
        tape = Tape()
        columns = [leaf(tape, self.x[:, t:t + 1]) for t in range(6)]
        state = zero_state(tape, 3)
        chained = tape.const(0.0)
        for t, column in enumerate(columns):
            state = ad.lstm(*weight_and_bias(tape, store), column, state, 1)
            chained = (chained + ad.vsum(state[0] * tape.const(self.gh[:, t:t + 1]))
                       + ad.vsum(state[1] * tape.const(self.gc[:, t:t + 1])))
        tape.backward(chained)
        stepped = (float(chained.value), store["w"].grad, store["b"].grad,
                   np.concatenate([c.grad for c in columns], axis=1))
        for got, want in zip(swept, stepped):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_gradient_matches_central_differences(self):
        store = store_from_arrays(w=self.W, b=self.b)
        assert finite_diff_check(store, lambda: self.sweep(store, self.x)[:2]) < 1e-6
        inputs = store_from_arrays(x=self.x)
        assert finite_diff_check(inputs, lambda: self.sweep(store, inputs["x"])[:2]) < 1e-6

    def test_shape_mismatch(self):
        store = store_from_arrays(w=np.zeros((8, 5)), b=np.zeros((8, 1)))
        with pytest.raises(ValueError):
            ad.lstm(*weight_and_bias(Tape(), store), Tape().const(np.ones((4, 3))), None, 1)

    def test_sequences_are_swept_independently(self):
        # the six columns as three frames of two sequences, frame-major
        store = store_from_arrays(w=self.W, b=self.b)
        tape = Tape()
        both = ad.lstm(*weight_and_bias(tape, store), tape.const(self.x), None, 2)
        for k in range(2):
            alone = ad.lstm(*weight_and_bias(tape, store), tape.const(self.x[:, k::2]), None, 1)
            for got, want in zip(both, alone):
                np.testing.assert_allclose(got.value[:, k::2], want.value, rtol=1e-13, atol=1e-15)


class TestLstmOp:
    """ad.lstm with S steps of B cells from given states, on step-major columns."""

    def setup_method(self):
        rng = np.random.default_rng(15)
        self.store = store_from_arrays(w=rng.normal(scale=0.5, size=(12, 7)),
                                       b=rng.normal(scale=0.5, size=(12, 1)))
        self.states = store_from_arrays(x=rng.normal(size=(4, 6)), h0=rng.normal(size=(3, 2)),
                                        c0=rng.normal(size=(3, 2)))
        self.gh, self.gc = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))

    def run(self):
        tape = Tape()
        x, h0, c0 = (tape.param(self.states[k]) for k in ("x", "h0", "c0"))
        hidden, cell = ad.lstm(*weight_and_bias(tape, self.store), x, (h0, c0), 2)
        loss = (ad.vsum(hidden * tape.const(self.gh))
                + ad.vsum(cell * tape.const(self.gc)))
        return tape, loss, hidden, cell

    def test_each_cell_is_the_scalar_reference_from_its_state(self):
        _, _, hidden, cell = self.run()
        w, b = self.store["w"].values, self.store["b"].values
        x, h0, c0 = (self.states[k].values for k in ("x", "h0", "c0"))
        for k in range(2):
            h, c = h0[:, k], c0[:, k]
            for s in range(3):
                h, c = reference_lstm_step(w, b, x[:, 2 * s + k], h, c)
                np.testing.assert_allclose(hidden.value[:, 2 * s + k], h, rtol=1e-13, atol=1e-15)
                np.testing.assert_allclose(cell.value[:, 2 * s + k], c, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("batch", [1, 4, 29])
    @pytest.mark.parametrize("from_zero", [True, False])
    def test_the_step_major_kernel_is_the_frame_major_loop_bit_for_bit(self, batch, from_zero):
        # S = 12 steps of H = 64 cells, as the model runs them; the states are
        # given either way, zero for a sweep from no state
        rng = np.random.default_rng(batch)
        w, b = rng.normal(scale=0.2, size=(256, 80)), rng.normal(scale=0.5, size=(256, 1))
        x = rng.normal(size=(16, 12 * batch))
        h0, c0 = ((np.zeros((64, batch)),) * 2 if from_zero
                  else rng.normal(size=(2, 64, batch)))
        g = rng.normal(size=(128, 12 * batch))

        def run(kernel):
            tape = Tape()
            leaves = [leaf(tape, v) for v in (w, b, x, h0, c0)]
            out = kernel(*leaves)
            tape.backward(ad.vsum(out * tape.const(g)))
            # a sweep from no state takes no state nodes, so passes them nothing
            return [out.value] + [node.grad for node in leaves[:3 if from_zero else 5]]

        def step_major(w, b, x, h0, c0):
            return ad.concat(ad.lstm(w, b, x, None if from_zero else (h0, c0), batch))

        for got, want in zip(run(step_major), run(oracles.frame_major_lstm), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_gradients_into_the_inputs_and_states_match_central_differences(self):
        assert finite_diff_check(self.store, lambda: self.run()[:2]) < 1e-6
        assert finite_diff_check(self.states, lambda: self.run()[:2]) < 1e-6

    def test_states_must_have_a_column_per_cell(self):
        tape = Tape()
        for x_shape, h0_cols, c0_cols, cells in [
                ((4, 6), 4, 4, 4),  # six input columns are no whole number of steps of four cells
                ((4, 6), 2, 1, 2),  # a cell state for each cell
                ((4, 3, 2), 2, 2, 2),  # the input is columns, not (I, S, B)
                ((4, 6), 2, 2, 3),  # B is ``sequences``, which a given state must match
        ]:
            with pytest.raises(ValueError, match="lstm shape mismatch"):
                ad.lstm(*weight_and_bias(tape, self.store), tape.const(np.ones(x_shape)),
                        (tape.const(np.zeros((3, h0_cols))), tape.const(np.zeros((3, c0_cols)))),
                        cells)


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
            adam_step(store, lr=lr, t=t)
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
        store = store_from_arrays(a=[[1.0]], bad=[[1.0, 2.0]], c=[[3.0]])
        store.grad[...] = 1.0
        adam_step(store, lr=0.1, t=1)
        before = [store.values.copy(), store.adam_m.copy(), store.adam_v.copy()]
        store.grad[...] = 1.0
        store["bad"].grad[0, 1] = np.inf
        with pytest.raises(TrainingError, match="'bad'"):
            adam_step(store, lr=0.1, t=2)
        # the step updates nothing: not even the parameter before the bad one
        for got, want in zip([store.values, store.adam_m, store.adam_v], before):
            assert (got == want).all()

    def test_step_index_must_be_positive(self):
        store = store_from_arrays(w=[[1.0]])
        with pytest.raises(ValueError):
            adam_step(store, lr=0.1, t=0)


# (n, 1) columns, matrices and the 3-D arrays that finite-difference tests use
_SHAPES = st.one_of(st.tuples(st.integers(1, 5), st.just(1)),
                    st.tuples(st.integers(1, 4), st.integers(1, 4)),
                    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)))


@settings(max_examples=60, deadline=None)
@given(shapes=st.lists(_SHAPES, min_size=1, max_size=4), steps=st.integers(1, 4),
       lr=st.sampled_from([1e-4, 0.01, 0.3]), seed=st.integers(0, 2 ** 32 - 1))
def test_flat_adam_equals_the_per_matrix_reference(shapes, steps, lr, seed):
    rng = np.random.default_rng(seed)
    named = {f"p{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
    store = store_from_arrays(**named)
    params = {name: (values.copy(), np.zeros_like(values)) for name, values in named.items()}
    moments = ({}, {})

    def flat(arrays):
        return np.concatenate([arrays[name].reshape(-1) for name in named])

    for t in range(1, steps + 1):
        for pm in store:
            # a zero gradient still decays a parameter's moments and moves it
            g = rng.normal(size=pm.grad.shape) if rng.random() < 0.7 else 0.0
            pm.grad[...] = g
            params[pm.name][1][...] = g
        adam_step(store, lr=lr, t=t)
        oracles.adam_step(params, moments, lr, 0.9, 0.999, 1e-8, t)
        assert (store.values == flat({n: values for n, (values, _) in params.items()})).all()
        assert (store.adam_m == flat(moments[0])).all()
        assert (store.adam_v == flat(moments[1])).all()
        assert (store.grad == 0.0).all()
        assert all((grad == 0.0).all() for _, grad in params.values())


class TestFlatLayout:
    SPECS = [("a", 3, 5), ("agent_rnn_b", 8, 1), ("c", 2, 2)]

    def assert_flat(self, store):
        """Every view lies in its store's vectors in spec order, with no gaps."""
        assert [(pm.name, pm.values.shape) for pm in store] == [
            (name, (rows, cols)) for name, rows, cols in self.SPECS]
        offset = 0
        for pm in store:
            for view, flat in ((pm.values, store.values), (pm.grad, store.grad)):
                assert np.shares_memory(view, flat)
                assert view.flags.c_contiguous
                assert view.ctypes.data == flat.ctypes.data + offset * flat.itemsize
            offset += pm.values.size
        assert offset == store.values.size == store.grad.size

    def test_init_params_lays_out_one_vector(self):
        self.assert_flat(init_params(self.SPECS, seed=4))

    def test_load_params_lays_out_one_vector(self, tmp_path):
        path = tmp_path / "model.rrm"
        save_params(path, init_params(self.SPECS, seed=4), {})
        self.assert_flat(load_params(path)[0])

    def test_backward_through_dense_adds_into_the_flat_grad(self):
        store = store_from_arrays(unused=np.ones((1, 2)), w=np.arange(6.0).reshape(3, 2),
                                  b=np.zeros((3, 1)))
        x = np.array([[1.0, -1.0], [2.0, 0.5]])
        tape = Tape()
        tape.backward(ad.vsum(oracles.dense(tape, store["w"], tape.const(x), store["b"])))
        # d sum(W x + b) / dW = ones(3, 2) @ x.T, and each bias feeds 2 columns
        expected = np.concatenate([[0.0, 0.0], (np.ones((3, 2)) @ x.T).reshape(-1),
                                   [2.0, 2.0, 2.0]])
        assert (store.grad == expected).all()


class TestFiniteDiffCheck:
    def test_quadratic_is_nearly_exact(self):
        store = store_from_arrays(w=[[3.0]])

        def make_loss():
            tape = Tape()
            w = tape.param(store["w"])
            return tape, ad.vsum(w * w)

        assert finite_diff_check(store, make_loss) < 1e-9

    def test_dense_sigmoid_layer(self):
        rng = np.random.default_rng(13)
        store = store_from_arrays(w=rng.normal(size=(3, 4)), b=rng.normal(size=(3, 1)))
        x = rng.normal(size=(4, 1))

        def make_loss():
            tape = Tape()
            out = oracles.tape_sigmoid(oracles.dense(tape, store["w"], tape.const(x),
                                                     store["b"]))
            return tape, ad.vsum(out)

        assert finite_diff_check(store, make_loss) < 1e-6


class TestSerialization:
    def roundtrip(self, tmp_path, store, config):
        path = tmp_path / "model.rrm"
        save_params(path, store, config)
        return load_params(path)

    def test_values_roundtrip_exactly(self, tmp_path):
        store = init_params([("a", 3, 5), ("agent_rnn_b", 8, 1)], seed=42)
        loaded, config = self.roundtrip(tmp_path, store, {})
        assert config == {}
        assert [pm.name for pm in loaded] == [pm.name for pm in store]
        assert np.array_equal(loaded.values, store.values)

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
        save_params(path, store, {})
        lines = path.read_text().splitlines()
        lines[2] = "0.5 0.5"  # overwrite one row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="checksum"):
            load_params(path)

    def test_file_without_its_checksum_line_is_truncated(self, tmp_path):
        store = init_params([("a", 2, 2), ("b", 1, 3)], seed=1)
        path = tmp_path / "model.rrm"
        save_params(path, store, {})
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

    @pytest.mark.parametrize("entry", ["inf", "nan"])
    def test_non_finite_value_names_the_file_and_block(self, tmp_path, entry):
        # an inf total matches an inf checksum, and a nan one matches nothing
        path = tmp_path / "model.rrm"
        path.write_text(f"RISKRNN-MODEL v1\na 1 2\n0.25 0.5\nb 1 2\n{entry} 0.5\n"
                        f"checksum {entry}\n")
        with pytest.raises(ValueError, match="block b holds a non-finite value") as err:
            load_params(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_repeated_block_names_its_line(self, tmp_path):
        path = tmp_path / "model.rrm"
        path.write_text("RISKRNN-MODEL v1\na 1 1\n0.5\na 1 1\n0.25\nchecksum 0.75\n")
        with pytest.raises(ValueError) as err:
            load_params(path)
        assert str(err.value) == f"{path}: line 4: duplicate parameter name: a"

    def test_an_error_names_its_line_counting_blank_lines(self, tmp_path):
        path = tmp_path / "model.rrm"
        path.write_text("RISKRNN-MODEL v1\nh_aa = 64\n\n\nh_aa = 32\na 1 1\n0.5\n"
                        "checksum 0.5\n")
        with pytest.raises(ValueError) as err:
            load_params(path)
        assert str(err.value) == f"{path}: line 5: duplicate config key 'h_aa'"

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bogus.rrm"
        path.write_text("NOT-A-MODEL\n")
        with pytest.raises(ValueError, match="RISKRNN-MODEL"):
            load_params(path)
