"""Bitwise pins for the single-model convolution backward.

``col2im`` and ``Conv2D.backward`` are compared against test-local copies of
the reference kernels they replaced: a scatter-add (``np.add.at``) over the
im2col index arrays, and an input-gradient einsum with the ``(F, K)`` weight
as first operand.  Package digests and campaign expectations depend on these
bytes, so the comparisons are exact, not within a tolerance.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, col2im
from repro.nn.model import Sequential


def _out_size(size, kernel, stride, padding):
    return (size + 2 * padding - kernel) // stride + 1


def reference_col2im(cols, x_shape, kh, kw, stride, padding):
    """The scatter-add ``col2im`` that the strided-slice kernel replaced."""
    n, c, h, w = x_shape
    out_h = _out_size(h, kh, stride, padding)
    out_w = _out_size(w, kw, stride, padding)
    i0 = np.tile(np.repeat(np.arange(kh), kw), c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0[:, None] + i1[None, :]
    j = j0[:, None] + j1[None, :]
    k = np.repeat(np.arange(c), kh * kw)[:, None]
    x_pad = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    np.add.at(x_pad, (slice(None), k, i, j), cols)
    if padding == 0:
        return x_pad
    return x_pad[:, :, padding:-padding, padding:-padding]


def reference_input_gradient(layer, grad_out):
    """``Conv2D.backward``'s input gradient with the original operand layout."""
    cache = layer._cache
    grad_z = layer.activation.backward(cache["z"], cache["y"], grad_out)
    x_shape = tuple(int(v) for v in cache["x_shape"])
    grad_z_mat = grad_z.reshape(x_shape[0], layer.filters, -1)
    w_mat = layer.weight.value.reshape(layer.filters, -1)
    grad_cols = np.einsum("fk,nfp->nkp", w_mat, grad_z_mat)
    kh, kw = layer.kernel_size
    return reference_col2im(grad_cols, x_shape, kh, kw, layer.stride, layer._padding())


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    kh=st.integers(1, 5),
    kw=st.integers(1, 5),
    stride=st.integers(1, 3),
    padding=st.integers(0, 2),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, c=3, h=3, w=3, kh=3, kw=3, stride=1, padding=0, dtype=np.float64, seed=0)
@example(n=1, c=2, h=5, w=4, kh=2, kw=3, stride=2, padding=1, dtype=np.float32, seed=1)
def test_col2im_matches_scatter_add_reference(n, c, h, w, kh, kw, stride, padding, dtype, seed):
    out_h = _out_size(h, kh, stride, padding)
    out_w = _out_size(w, kw, stride, padding)
    assume(out_h > 0 and out_w > 0)
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((n, c * kh * kw, out_h * out_w)).astype(dtype)
    cols[rng.random(cols.shape) < 0.1] = -0.0  # signed zeros are part of the bytes
    got = col2im(cols, (n, c, h, w), kh, kw, stride, padding)
    want = reference_col2im(cols, (n, c, h, w), kh, kw, stride, padding)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    if not (padding == 0 and stride == kh == kw):
        # overlapping geometries sum from zero exactly like the scatter-add;
        # the non-overlapping tiling assigns, so only -0.0 vs 0.0 may differ
        assert got.tobytes() == want.tobytes()


# (filters, input (C, H, W), kernel, stride, padding) — the last two give a
# 1x1 output, where the original operand layout is kept
CONV_GEOMETRIES = [
    (8, (1, 12, 12), 3, 1, "same"),
    (6, (3, 9, 7), (2, 3), 2, 1),
    (4, (2, 10, 10), 5, 3, 2),
    (5, (4, 6, 6), 2, 1, "valid"),
    (7, (3, 3, 3), 3, 1, "valid"),
    (3, (2, 4, 5), (4, 5), 2, 0),
]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("filters,shape,kernel,stride,padding", CONV_GEOMETRIES)
def test_conv_backward_input_gradient_is_bitwise_reference(
    filters, shape, kernel, stride, padding, dtype
):
    rng = np.random.default_rng(7)
    layer = Conv2D(filters, kernel, stride=stride, padding=padding, activation="tanh")
    layer.build(shape, rng)
    layer.weight.value = layer.weight.value.astype(dtype)
    x = rng.standard_normal((3, *shape)).astype(dtype)
    y = layer.forward(x)
    grad_out = rng.standard_normal(y.shape).astype(dtype)
    want = reference_input_gradient(layer, grad_out)
    with_params = layer.backward(grad_out)
    assert with_params.tobytes() == want.tobytes()
    grads_before = [p.grad.copy() for p in layer.parameters()]
    without_params = layer.backward(grad_out, need_param_grads=False)
    assert without_params.tobytes() == want.tobytes()
    for param, before in zip(layer.parameters(), grads_before):
        assert param.grad.tobytes() == before.tobytes()


def _small_cnn():
    model = Sequential(
        [
            Conv2D(4, 3, activation="tanh"),
            MaxPool2D(2),
            Conv2D(6, 3, stride=2, padding=1, activation="relu"),
            Flatten(),
            Dense(5),
        ]
    )
    model.build((1, 8, 8), rng=3)
    return model


def test_input_gradient_matches_loss_gradients_and_leaves_grads_zero():
    model = _small_cnn()
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, 1, 8, 8))
    targets = rng.integers(0, 5, size=6)
    value_ref, grad_ref = model.loss_gradients(x, targets)
    assert any(np.any(p.grad != 0) for p in model.parameters())  # left dirty
    value, grad = model.input_gradient(x, targets)
    assert value == value_ref
    assert grad.tobytes() == grad_ref.tobytes()
    for param in model.parameters():
        assert not np.any(param.grad), param.name
