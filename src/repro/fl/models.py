"""The numpy model of the federated-learning substrate.

:class:`SoftmaxRegression` is a linear softmax classifier behind a
flat-parameter-vector interface, so FedAvg aggregation
(:mod:`repro.fl.fedavg`) works on plain vectors.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), num_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


class SoftmaxRegression:
    """Multinomial logistic regression trained with mini-batch SGD."""

    def __init__(
        self, num_features: int, num_classes: int, l2: float = 1e-4
    ) -> None:
        if num_features <= 0 or num_classes <= 1:
            raise ValueError("invalid model dimensions")
        self.num_features = num_features
        self.num_classes = num_classes
        self.l2 = float(l2)
        self.weights = np.zeros((num_features, num_classes))
        self.bias = np.zeros(num_classes)

    # -- parameter vector interface -------------------------------------- #
    def get_parameters(self) -> np.ndarray:
        """The model parameters as one flat vector (a copy)."""
        return np.concatenate([self.weights.ravel(), self.bias.ravel()]).copy()

    def set_parameters(self, flat: np.ndarray) -> None:
        expected = self.num_features * self.num_classes + self.num_classes
        if flat.shape != (expected,):
            raise ValueError(f"expected parameter vector of length {expected}")
        w_end = self.num_features * self.num_classes
        self.weights = flat[:w_end].reshape(self.num_features, self.num_classes).copy()
        self.bias = flat[w_end:].copy()

    # -- training / inference --------------------------------------------- #
    def _logits(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights + self.bias

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return _softmax(self._logits(features))

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self._logits(features), axis=1)

    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on a labelled set."""
        if len(labels) == 0:
            return 0.0
        return float(np.mean(self.predict(features) == labels))

    def loss(self, features: np.ndarray, labels: np.ndarray) -> float:
        probs = self.predict_proba(features)
        eps = 1e-12
        nll = -np.mean(np.log(probs[np.arange(len(labels)), labels] + eps))
        reg = 0.5 * self.l2 * float(np.sum(self.weights**2))
        return float(nll + reg)

    def train_steps(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        lr: float,
        epochs: int = 1,
        batch_size: int = 32,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        rng = rng or np.random.default_rng()
        n = len(labels)
        if n == 0:
            return
        onehot = _one_hot(labels, self.num_classes)
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                X, Y = features[idx], onehot[idx]
                probs = _softmax(X @ self.weights + self.bias)
                grad_logits = (probs - Y) / len(idx)
                grad_w = X.T @ grad_logits + self.l2 * self.weights
                grad_b = grad_logits.sum(axis=0)
                self.weights -= lr * grad_w
                self.bias -= lr * grad_b

    def clone(self) -> "SoftmaxRegression":
        """A new model of the same shape with copied parameters."""
        model = SoftmaxRegression(self.num_features, self.num_classes, self.l2)
        model.set_parameters(self.get_parameters())
        return model


__all__ = ["SoftmaxRegression"]
