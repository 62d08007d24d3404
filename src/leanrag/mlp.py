"""Small fully connected nets with hand-written backprop.

tanh hidden layers, sigmoid output units, binary cross-entropy objective with
per-example weights. Parameters live in one flat vector so finite-difference
checks and optimizer code stay trivial.

Every training gradient and loss comes from one routine, ``Backprop``: the
forward and backward pass of one net at one parameter vector.
``weighted_bce``, ``sgd_epoch`` and the scorer's hypergradient and held-out
losses all run it; ``train_scorer`` runs the hypergradient's
split-gradient pass on a worker thread beside the epoch's ``sgd_epoch``,
each on its own ``Backprop``, which no other thread touches. A
``Backprop`` holds the layer views of its vector, their transposes, and
every activation, delta and gradient buffer, allocated once
when it is built (by ``sgd_epoch``, once per epoch) for batches of up to
``rows`` rows; a ``step`` writes into them and allocates only the sigmoid's
few small arrays. ``sgd_epoch`` updates a copy of its input parameters in
place and returns it. Every result is bit-identical to summing each gradient
product into zeros and taking ``params - learning_rate * grad`` each step.
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
    """1 / (1 + exp(-z)) where z >= 0 and exp(z) / (1 + exp(z)) elsewhere,
    both from one exp(-|z|), so that neither side overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def bce_elementwise(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-example BCE summed over output units, probabilities clamped to
    [PROB_EPS, 1 - PROB_EPS]."""
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    losses = -(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p))
    return losses.sum(axis=1)


class Mlp:
    """Feed-forward net: layer_sizes[0] inputs -> ... -> sigmoid outputs.

    A net's parameters are fixed when it is built. Without ``params`` the
    weights are drawn from ``seed`` (Gaussian, scaled by 1 / sqrt(fan-in);
    biases zero), the initialization training starts from. With ``params``,
    a flat vector such as a trained or saved net's, the net holds a copy of
    it and draws nothing; a vector of another length raises ``ValueError``.
    Training builds a new net from the vector it ends at."""

    def __init__(self, layer_sizes: Sequence[int], seed: int = 0,
                 params: np.ndarray | None = None):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.seed = int(seed)
        self._shapes = [((n_out, n_in), (n_out,)) for n_in, n_out
                        in zip(self.layer_sizes, self.layer_sizes[1:])]
        self._size = sum(n_out * (n_in + 1)
                         for (n_out, n_in), _ in self._shapes)
        if params is None:
            rng = np.random.default_rng(self.seed)
            parts = []
            for (n_out, n_in), _ in self._shapes:
                parts.append(rng.standard_normal(n_out * n_in) / np.sqrt(n_in))
                parts.append(np.zeros(n_out))
            self._params = np.concatenate(parts)
        else:
            self._params = np.array(params, dtype=np.float64)
            if self._params.shape != (self._size,):
                raise ValueError(f"expected {(self._size,)}, "
                                 f"got {self._params.shape}")
        self._layers = self._unpack(self._params)

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    def get_params(self) -> np.ndarray:
        return self._params.copy()

    def first_layer(self) -> tuple[np.ndarray, np.ndarray]:
        """(W, b) of the first layer, views of the net's parameters."""
        return self._layers[0]

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

    def forward_logits(self, inputs: np.ndarray, *,
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
        layers = self._layers
        if not preactivated:
            w, b = layers[0]
            x = x @ w.T + b
        for w, b in layers[1:]:
            x = np.tanh(x) @ w.T + b
        return x[:, 0, :]

    def probabilities(self, inputs: np.ndarray) -> np.ndarray:
        return sigmoid(self.forward_logits(inputs))

    def weighted_bce(self, params: np.ndarray, inputs: np.ndarray,
                     targets: np.ndarray, sample_weights: np.ndarray,
                     normalizer: float) -> tuple[float, np.ndarray]:
        """Loss and flat gradient of sum_i weight_i * bce_i / normalizer."""
        x, y, sw = _as_batch(inputs, targets, sample_weights)
        work = Backprop(self, params, len(x))
        work.forward(x)
        grad = work.backward(y, sw, normalizer)
        return work.loss(y, sw, normalizer), grad


def _as_batch(inputs, targets, sample_weights):
    return (np.atleast_2d(np.asarray(inputs, dtype=np.float64)),
            np.atleast_2d(np.asarray(targets, dtype=np.float64)),
            np.asarray(sample_weights, dtype=np.float64))


class Backprop:
    """Forward and backward passes of ``net`` at ``params`` over batches of
    at most ``rows`` rows, each layer one matrix product over the batch.

    ``params`` is read through views made here, so ``step``, which updates
    it in place, changes what the next pass computes. ``forward`` keeps the
    activations and ``probs`` for the ``backward`` and ``loss`` calls after
    it; ``backward`` returns ``grad``, which the next ``backward``
    overwrites."""

    def __init__(self, net: Mlp, params: np.ndarray, rows: int):
        self.params = params
        layers = net._unpack(params)
        self._weights = [w for w, _ in layers]
        self._transposed = [w.T for w in self._weights]
        self._biases = [b for _, b in layers]
        self.grad = np.empty_like(params)
        self._grads = net._unpack(self.grad)
        widths = net.layer_sizes[1:]
        # each layer's output (tanh activations, the last the logits) and
        # delta, and each hidden layer's tanh slope 1 - h ** 2
        self._outputs = [np.empty((rows, n)) for n in widths]
        self._deltas = [np.empty((rows, n)) for n in widths]
        self._slopes = [np.empty((rows, n)) for n in widths[:-1]]
        self._finite = np.empty(params.shape, dtype=bool)
        self._activations: list[np.ndarray] = []
        self.probs = np.empty((0, widths[-1]))

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """The logits of ``inputs``, a view of a buffer; sets ``probs``."""
        n = len(inputs)
        activations = [inputs]
        last = len(self._weights) - 1
        for i, (wt, b, out) in enumerate(zip(self._transposed, self._biases,
                                             self._outputs)):
            z = np.matmul(activations[-1], wt, out=out[:n])
            z += b
            if i < last:
                np.tanh(z, out=z)
            activations.append(z)
        self._activations = activations
        self.probs = sigmoid(activations[-1])
        return activations[-1]

    def backward(self, targets: np.ndarray, sample_weights: np.ndarray,
                 normalizer: float) -> np.ndarray:
        """Flat gradient of sum_i weight_i * bce_i / normalizer over the
        rows of the last ``forward``."""
        n = len(targets)
        delta = np.subtract(self.probs, targets, out=self._deltas[-1][:n])
        delta *= sample_weights[:, None]
        delta /= normalizer
        for i in range(len(self._weights) - 1, -1, -1):
            gw, gb = self._grads[i]
            np.matmul(delta.T, self._activations[i], out=gw)
            np.add.reduce(delta, axis=0, out=gb)
            if i:
                slope = np.square(self._activations[i],
                                  out=self._slopes[i - 1][:n])
                np.subtract(1.0, slope, out=slope)
                delta = np.matmul(delta, self._weights[i],
                                  out=self._deltas[i - 1][:n])
                delta *= slope
        # as summing into zeros would: a -0.0 product becomes +0.0
        self.grad += 0.0
        return self.grad

    def loss(self, targets: np.ndarray, sample_weights: np.ndarray,
             normalizer: float) -> float:
        """sum_i weight_i * bce_i / normalizer over the rows of the last
        ``forward``."""
        return float((sample_weights * bce_elementwise(self.probs, targets))
                     .sum() / normalizer)

    def step(self, inputs: np.ndarray, targets: np.ndarray,
             sample_weights: np.ndarray, learning_rate: float) -> None:
        """One gradient-descent step on the batch's weighted BCE, normalized
        by the batch size, made on ``params`` in place."""
        if learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        self.forward(inputs)
        grad = self.backward(targets, sample_weights, len(inputs))
        if not np.isfinite(grad, out=self._finite).all():
            raise TrainingError("non-finite gradient")
        grad *= learning_rate
        self.params -= grad


def sgd_epoch(net: Mlp, params: np.ndarray, inputs: np.ndarray,
              targets: np.ndarray, sample_weights: np.ndarray,
              batch_size: int, learning_rate: float,
              rng: np.random.Generator) -> np.ndarray:
    """One pass of mini-batch steps over the examples in an order drawn
    from ``rng``, as new parameters (``params`` is not written)."""
    x, y, sw = _as_batch(inputs, targets, sample_weights)
    order = rng.permutation(len(x))
    rows = min(batch_size, len(x))
    work = Backprop(net, np.array(params, dtype=np.float64), rows)
    # each batch is gathered into these, never the whole matrix permuted
    x_batch = np.empty((rows, x.shape[1]))
    y_batch = np.empty((rows, y.shape[1]))
    sw_batch = np.empty(rows)
    for lo in range(0, len(x), batch_size):
        batch = order[lo:lo + batch_size]
        n = len(batch)
        # "clip" takes straight into ``out`` ("raise" would buffer); a
        # permutation's indices are all in range
        work.step(np.take(x, batch, axis=0, out=x_batch[:n], mode="clip"),
                  np.take(y, batch, axis=0, out=y_batch[:n], mode="clip"),
                  np.take(sw, batch, out=sw_batch[:n], mode="clip"),
                  learning_rate)
    return work.params


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
