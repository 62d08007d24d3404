"""Small fully connected nets with hand-written backprop.

tanh hidden layers, sigmoid output units, binary cross-entropy objective with
per-example weights. Parameters live in one flat vector so finite-difference
checks and optimizer code stay trivial.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

PROB_EPS = 1e-7
# share of each stratum both trainers hold out for validation
VAL_FRACTION = 0.1


class TrainingError(RuntimeError):
    """Training produced a non-finite gradient or loss."""


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_elementwise(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-example BCE summed over output units, probabilities clamped to
    [PROB_EPS, 1 - PROB_EPS]."""
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    losses = -(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p))
    return losses.sum(axis=1)


class Mlp:
    """Feed-forward net: layer_sizes[0] inputs -> ... -> sigmoid outputs."""

    def __init__(self, layer_sizes: Sequence[int], seed: int = 0):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        self._shapes: list[tuple[tuple[int, int], tuple[int]]] = []
        params = []
        for n_in, n_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            w = rng.standard_normal((n_out, n_in)) / np.sqrt(n_in)
            b = np.zeros(n_out)
            self._shapes.append(((n_out, n_in), (n_out,)))
            params.append(w.ravel())
            params.append(b)
        self._params = np.concatenate(params)
        # bumped by every set_params, so that anything computed from the
        # parameters can tell that it is stale
        self.version = 0

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    def get_params(self) -> np.ndarray:
        return self._params.copy()

    def set_params(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != self._params.shape:
            raise ValueError(f"expected {self._params.shape}, got {vec.shape}")
        self._params = vec.copy()
        self.version += 1

    def first_layer(self) -> tuple[np.ndarray, np.ndarray]:
        """(W, b) of the first layer, views of the current parameters
        (``set_params`` replaces them, never writes into them)."""
        return self._unpack(self._params)[0]

    def _unpack(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        layers = []
        pos = 0
        for w_shape, b_shape in self._shapes:
            w_size = w_shape[0] * w_shape[1]
            w = vec[pos:pos + w_size].reshape(w_shape)
            pos += w_size
            b = vec[pos:pos + b_shape[0]]
            pos += b_shape[0]
            layers.append((w, b))
        return layers

    def forward_logits(self, inputs: np.ndarray,
                       params: np.ndarray | None = None, *,
                       preactivated: bool = False) -> np.ndarray:
        """Logits, one row per input row. Each row goes through its own
        vector-matrix products, so its logits are bit-identical whatever
        else is in the batch: identical inputs score identically, and a
        batch scores exactly as one call per row would. With
        ``preactivated`` each row is already the first layer's
        pre-activation W x + b, and only the layers after it run, under the
        same contract. (``ScorerModel.score_arrays`` passes W_q q + W_d d + b,
        which is within rounding of W x + b, not bit-equal to it.)"""
        x = np.atleast_2d(inputs)[:, None, :]
        layers = self._unpack(self._params if params is None else params)
        if not preactivated:
            w, b = layers[0]
            x = x @ w.T + b
        logits, _ = _after_first(x, layers[1:])
        return logits[:, 0, :]

    def probabilities(self, inputs: np.ndarray,
                      params: np.ndarray | None = None) -> np.ndarray:
        return sigmoid(self.forward_logits(inputs, params))

    def _forward(self, x: np.ndarray, params: np.ndarray):
        layers = self._unpack(params)
        w, b = layers[0]
        logits, hidden = _after_first(x @ w.T + b, layers[1:])
        return logits, [x, *hidden]

    def weighted_bce(self, params: np.ndarray, inputs: np.ndarray,
                     targets: np.ndarray, sample_weights: np.ndarray,
                     normalizer: float) -> tuple[float, np.ndarray]:
        """Loss and flat gradient of sum_i weight_i * bce_i / normalizer."""
        x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        sw = np.asarray(sample_weights, dtype=np.float64)
        layers = self._unpack(params)
        logits, activations = self._forward(x, params)
        probs = sigmoid(logits)
        loss = float((sw * bce_elementwise(probs, y)).sum() / normalizer)

        grad = np.zeros_like(params)
        grad_layers = self._unpack(grad)  # views into grad
        delta = (probs - y) * sw[:, None] / normalizer
        for idx in range(len(layers) - 1, -1, -1):
            w, _ = layers[idx]
            gw, gb = grad_layers[idx]
            gw += delta.T @ activations[idx]
            gb += delta.sum(axis=0)
            if idx > 0:
                delta = (delta @ w) * (1.0 - activations[idx] ** 2)
        return loss, grad


def _after_first(z: np.ndarray, layers) -> tuple[np.ndarray, list]:
    """Logits and hidden activations from the first layer's pre-activation
    ``z``: tanh, then each later layer, the last without tanh."""
    hidden = []
    for w, b in layers:
        z = np.tanh(z)
        hidden.append(z)
        z = z @ w.T + b
    return z, hidden


def sgd_step(net: Mlp, params: np.ndarray, inputs: np.ndarray,
             targets: np.ndarray, sample_weights: np.ndarray,
             learning_rate: float) -> np.ndarray:
    """One gradient-descent step on the batch's weighted BCE, normalized by
    the batch size."""
    if learning_rate < 0:
        raise ValueError("learning_rate must be >= 0")
    _, grad = net.weighted_bce(params, inputs, targets, sample_weights,
                               len(inputs))
    if not np.all(np.isfinite(grad)):
        raise TrainingError("non-finite gradient")
    return params - learning_rate * grad


def sgd_epoch(net: Mlp, params: np.ndarray, inputs: np.ndarray,
              targets: np.ndarray, sample_weights: np.ndarray,
              batch_size: int, learning_rate: float,
              rng: np.random.Generator) -> np.ndarray:
    """One pass of mini-batch steps over the examples in an order drawn
    from ``rng``."""
    order = rng.permutation(len(inputs))
    for lo in range(0, len(inputs), batch_size):
        batch = order[lo:lo + batch_size]
        params = sgd_step(net, params, inputs[batch], targets[batch],
                          sample_weights[batch], learning_rate)
    return params


def stratified_split(flags: np.ndarray,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sorted index arrays (train, validation), stratified on a boolean flag
    (the flagged stratum is permuted first). Each stratum sends
    round(n * VAL_FRACTION) of its n examples to validation, at least one,
    and keeps at least one for training when n >= 2."""
    train_idx: list[int] = []
    val_idx: list[int] = []
    for mask in (flags, ~flags):
        stratum = rng.permutation(np.flatnonzero(mask))
        n_val = min(max(1, int(round(len(stratum) * VAL_FRACTION))),
                    max(len(stratum) - 1, 1))
        val_idx.extend(stratum[:n_val])
        train_idx.extend(stratum[n_val:])
    return (np.sort(np.array(train_idx, dtype=np.intp)),
            np.sort(np.array(val_idx, dtype=np.intp)))
