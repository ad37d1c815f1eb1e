"""Feed-forward neural network forecaster (the GluonTS stand-in).

The paper trains GluonTS's "simple feed forward estimator".  This module
implements the same model class on numpy: a two-hidden-layer MLP that maps
a context window of past load onto the next prediction chunk, trained with
mini-batch Adam on sliding windows drawn from the server's history.  The
forecast for a full day is produced by rolling the model forward chunk by
chunk.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import Forecaster, ForecastError
from repro.timeseries.calendar import points_per_day
from repro.timeseries.series import LoadSeries


# Hyper-parameters.  The context window is one day of samples and each
# prediction chunk a quarter day, on the history's own grid.
_HIDDEN_UNITS = 48
_EPOCHS = 12
_BATCH_SIZE = 32
_LEARNING_RATE = 1e-3
_L2 = 1e-5
_SEED = 13


class _Mlp:
    """Minimal two-hidden-layer MLP with Adam, operating on float64 arrays."""

    def __init__(self, n_in: int, n_hidden: int, n_out: int, rng: np.random.Generator) -> None:
        scale1 = np.sqrt(2.0 / n_in)
        scale2 = np.sqrt(2.0 / n_hidden)
        self.w1 = rng.normal(0.0, scale1, (n_in, n_hidden))
        self.b1 = np.zeros(n_hidden)
        self.w2 = rng.normal(0.0, scale2, (n_hidden, n_hidden))
        self.b2 = np.zeros(n_hidden)
        self.w3 = rng.normal(0.0, scale2, (n_hidden, n_out))
        self.b3 = np.zeros(n_out)
        self._adam_state = {name: (np.zeros_like(param), np.zeros_like(param))
                            for name, param in self._params().items()}
        self._adam_step = 0

    def _params(self) -> dict[str, np.ndarray]:
        return {
            "w1": self.w1, "b1": self.b1,
            "w2": self.w2, "b2": self.b2,
            "w3": self.w3, "b3": self.b3,
        }

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        z1 = x @ self.w1 + self.b1
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ self.w2 + self.b2
        a2 = np.maximum(z2, 0.0)
        out = a2 @ self.w3 + self.b3
        return out, (x, z1, a1, z2, a2)

    def backward(self, grad_out: np.ndarray, cache: tuple, l2: float) -> dict[str, np.ndarray]:
        x, z1, a1, z2, a2 = cache
        grads: dict[str, np.ndarray] = {}
        grads["w3"] = a2.T @ grad_out + l2 * self.w3
        grads["b3"] = grad_out.sum(axis=0)
        da2 = grad_out @ self.w3.T
        dz2 = da2 * (z2 > 0)
        grads["w2"] = a1.T @ dz2 + l2 * self.w2
        grads["b2"] = dz2.sum(axis=0)
        da1 = dz2 @ self.w2.T
        dz1 = da1 * (z1 > 0)
        grads["w1"] = x.T @ dz1 + l2 * self.w1
        grads["b1"] = dz1.sum(axis=0)
        return grads

    def adam_update(self, grads: dict[str, np.ndarray], lr: float) -> None:
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self._adam_step += 1
        step = self._adam_step
        for name, param in self._params().items():
            m, v = self._adam_state[name]
            grad = grads[name]
            m[:] = beta1 * m + (1 - beta1) * grad
            v[:] = beta2 * v + (1 - beta2) * grad * grad
            m_hat = m / (1 - beta1 ** step)
            v_hat = v / (1 - beta2 ** step)
            param -= lr * m_hat / (np.sqrt(v_hat) + eps)


class FeedForwardForecaster(Forecaster):
    """Windowed MLP forecaster trained on a single server's history."""

    name = "feedforward"

    def __init__(self) -> None:
        super().__init__()
        self._mlp: _Mlp | None = None
        self._mean = 0.0
        self._scale = 1.0
        self._context = 0
        self._chunk = 0

    def _fit(self, history: LoadSeries) -> None:
        points_day = points_per_day(history.interval_minutes)
        self._context = points_day
        self._chunk = max(1, points_day // 4)

        values = history.values.astype(np.float64)
        if values.shape[0] < self._context + self._chunk:
            raise ForecastError(
                f"{self.name}: need at least {self._context + self._chunk} points, "
                f"got {values.shape[0]}"
            )
        self._mean = float(values.mean())
        self._scale = float(values.std()) or 1.0
        normalized = (values - self._mean) / self._scale

        n_samples = values.shape[0] - self._context - self._chunk + 1
        stride = max(1, n_samples // 512)  # cap the training set for scalability
        starts = np.arange(0, n_samples, stride)
        inputs = np.stack([normalized[s : s + self._context] for s in starts])
        targets = np.stack(
            [normalized[s + self._context : s + self._context + self._chunk] for s in starts]
        )

        rng = np.random.default_rng(_SEED)
        self._mlp = _Mlp(self._context, _HIDDEN_UNITS, self._chunk, rng)

        n = inputs.shape[0]
        for _ in range(_EPOCHS):
            order = rng.permutation(n)
            for start in range(0, n, _BATCH_SIZE):
                batch = order[start : start + _BATCH_SIZE]
                x, y = inputs[batch], targets[batch]
                prediction, cache = self._mlp.forward(x)
                grad = 2.0 * (prediction - y) / x.shape[0]
                grads = self._mlp.backward(grad, cache, _L2)
                self._mlp.adam_update(grads, _LEARNING_RATE)

    def _predict_values(self, n_points: int) -> np.ndarray:
        assert self._mlp is not None and self._history is not None
        normalized_history = (self._history.values - self._mean) / self._scale
        context = normalized_history[-self._context :].copy()
        if context.shape[0] < self._context:
            context = np.concatenate(
                [np.full(self._context - context.shape[0], normalized_history.mean()), context]
            )
        outputs: list[np.ndarray] = []
        produced = 0
        while produced < n_points:
            chunk, _ = self._mlp.forward(context[None, :])
            chunk = chunk[0]
            outputs.append(chunk)
            produced += chunk.shape[0]
            context = np.concatenate([context, chunk])[-self._context :]
        forecast = np.concatenate(outputs)[:n_points]
        return forecast * self._scale + self._mean
