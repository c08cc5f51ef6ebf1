"""Tests for optimisers."""

import numpy as np
import pytest

from repro.nn.layers import Parameter
from repro.nn.optim import SGD, AdamVector


def quadratic_param(start=5.0):
    """A single scalar parameter with loss 0.5*x^2 (gradient = x)."""
    return Parameter("x", np.array([start]))


class TestSGD:
    def test_single_step(self):
        p = quadratic_param()
        p.grad[:] = p.data
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [4.5])

    def test_converges_on_quadratic(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            p.zero_grad()
            p.grad[:] = p.data
            opt.step()
        assert abs(p.data[0]) < 1e-6

    def test_momentum_accelerates(self):
        plain, heavy = quadratic_param(), quadratic_param()
        opt_p = SGD([plain], lr=0.01)
        opt_h = SGD([heavy], lr=0.01, momentum=0.9)
        for _ in range(50):
            plain.grad[:] = plain.data
            heavy.grad[:] = heavy.data
            opt_p.step()
            opt_h.step()
        assert abs(heavy.data[0]) < abs(plain.data[0])

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            SGD([quadratic_param()], lr=0.0)

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError):
            SGD([quadratic_param()], lr=0.1, momentum=1.0)

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_zero_grad(self):
        p = quadratic_param()
        p.grad[:] = 3.0
        SGD([p], lr=0.1).zero_grad()
        assert np.all(p.grad == 0.0)


class TestSGDReuse:
    """configure/reset_state let one SGD replace per-round rebuilds."""

    def test_configure_keeps_velocity_buffers(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1, momentum=0.9)
        before = opt._velocity[0]
        opt.configure(0.2, momentum=0.5)
        assert opt._velocity[0] is before
        assert (opt.lr, opt.momentum) == (0.2, 0.5)

    def test_configure_momentum_transitions(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1)
        assert opt._velocity is None
        opt.configure(0.1, momentum=0.9)
        assert opt._velocity is not None
        opt.configure(0.1)
        assert opt._velocity is None

    def test_reset_state_zeroes_in_place(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1, momentum=0.9)
        p.grad[:] = 2.0
        opt.step()
        buf = opt._velocity[0]
        assert np.any(buf != 0.0)
        opt.reset_state()
        assert opt._velocity[0] is buf
        assert np.all(buf == 0.0)

    def test_reconfigured_matches_fresh_bitwise(self):
        fresh_p, reused_p = quadratic_param(), quadratic_param()
        reused = SGD([reused_p], lr=0.3, momentum=0.2)
        reused_p.grad[:] = 1.0
        reused.step()  # dirty the state
        reused_p.data[:] = fresh_p.data
        reused.configure(0.1, momentum=0.9)
        reused.reset_state()
        fresh = SGD([fresh_p], lr=0.1, momentum=0.9)
        for _ in range(5):
            fresh_p.grad[:] = fresh_p.data
            reused_p.grad[:] = reused_p.data
            fresh.step()
            reused.step()
        assert np.array_equal(fresh_p.data, reused_p.data)

    def test_configure_rejects_bad_values(self):
        opt = SGD([quadratic_param()], lr=0.1)
        with pytest.raises(ValueError):
            opt.configure(0.0)
        with pytest.raises(ValueError):
            opt.configure(0.1, momentum=1.0)


def _reference_sgd_step(params, velocity, lr, momentum):
    """The whole-array expressions ``SGD.step`` evaluated before it was
    blocked; every temporary it allocated is spelled out."""
    for i, p in enumerate(params):
        grad = p.grad
        if velocity is not None:
            velocity[i] *= momentum
            velocity[i] += grad
            update = velocity[i]
        else:
            update = grad
        p.data -= lr * update


class TestSGDIsBitEqualToWholeArrayExpressions:
    # Shapes straddle the block edge (32768 elements) in 1-D and 2-D,
    # and include a scalar and a Fortran-ordered matrix.
    SHAPES = ((), (5,), (32768,), (70_001,), (300, 257), (3, 4, 5))

    def _params(self, rng):
        params = [Parameter(f"p{i}", rng.standard_normal(s)) for i, s in enumerate(self.SHAPES)]
        params.append(Parameter("fortran", np.asfortranarray(rng.standard_normal((130, 300)))))
        return params

    @pytest.mark.parametrize("momentum", (0.0, 0.9))
    def test_three_steps(self, momentum):
        ours = self._params(np.random.default_rng(1))
        theirs = self._params(np.random.default_rng(1))
        opt = SGD(ours, lr=0.05, momentum=momentum)
        velocity = [np.zeros_like(p.data) for p in theirs] if momentum else None
        rng = np.random.default_rng(2)
        for _ in range(3):
            for a, b in zip(ours, theirs):
                a.grad[...] = b.grad[...] = rng.standard_normal(a.data.shape)
            opt.step()
            _reference_sgd_step(theirs, velocity, 0.05, momentum)
            for a, b in zip(ours, theirs):
                assert a.data.tobytes() == b.data.tobytes(), a.name
                assert a.grad.tobytes() == b.grad.tobytes(), a.name

    def test_scratch_is_block_sized_and_reused(self):
        p = Parameter("w", np.ones(200_000))
        opt = SGD([p], lr=0.1, momentum=0.9)
        opt.step()
        scratch = dict(opt._scratch)
        opt.step()
        assert all(opt._scratch[k] is v for k, v in scratch.items())
        assert sum(v.nbytes for v in scratch.values()) <= p.data.nbytes // 4


class TestAdamVector:
    def test_step_moves_against_gradient(self):
        opt = AdamVector(dim=3, lr=0.1)
        params = np.array([1.0, -1.0, 0.5])
        grad = np.array([1.0, -1.0, 1.0])
        new = opt.step(params, grad)
        assert np.all((new - params) * grad < 0)

    def test_converges_on_quadratic(self):
        opt = AdamVector(dim=2, lr=0.2)
        x = np.array([3.0, -4.0])
        for _ in range(300):
            x = opt.step(x, x)
        assert np.linalg.norm(x) < 1e-2

    def test_shape_mismatch_raises(self):
        opt = AdamVector(dim=3)
        with pytest.raises(ValueError):
            opt.step(np.zeros(2), np.zeros(2))

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            AdamVector(dim=0)
