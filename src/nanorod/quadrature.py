"""Sampled-function calculus on the shared uniform grid.

All integral operators used by the toolkit are right-anchored, i.e. they
integrate from t to 1.  They are computed by reversing the sample array,
running a cumulative composite-Simpson pass, and reversing back.  The
cumulative pass is 4th-order accurate: even indices carry plain composite
Simpson, odd indices add a half-panel integrated from the parabola through
the three nearest samples.
"""

import numpy as np

from .errors import ConfigurationError, GridMismatchError, InadmissibleSlopeError

DEFAULT_N = 4096


class Grid:
    """Uniform grid t_i = i/n on [0, 1] with composite-Simpson weights, n even."""

    def __init__(self, n: int = DEFAULT_N):
        if n <= 0 or n % 2 != 0:
            raise ConfigurationError(f"grid size must be a positive even integer, got {n}")
        self.n = n
        self.h = 1.0 / n
        self.t = np.linspace(0.0, 1.0, n + 1)
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        self.weights = w * (self.h / 3.0)
        self._memo = {}

    def __repr__(self):
        return f"Grid(n={self.n})"

    def memo(self, slot: str, key, build):
        """The arrays build() returns, made read-only and kept under slot until
        a call with another key replaces them: one entry per slot, so the grid
        holds the arrays of one critical point at a time.
        """
        held = self._memo.get(slot)
        if held is None or held[0] != key:
            arrays = build()
            for a in arrays:
                a.setflags(write=False)
            held = self._memo[slot] = (key, arrays)
        return held[1]

    def _check(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n + 1,):
            raise GridMismatchError(f"expected {self.n + 1} samples, got shape {z.shape}")
        return z

    def inner(self, y, q) -> float:
        """Composite-Simpson inner product  int_0^1 y q dt."""
        y = self._check(y)
        q = self._check(q)
        return float(np.dot(self.weights, y * q))

    def norm(self, y) -> float:
        return np.sqrt(self.inner(y, y))

    def _cumulative_forward(self, z: np.ndarray) -> np.ndarray:
        """out[i] = int_{t_0}^{t_i} z, cumulative composite Simpson."""
        n, h = self.n, self.h
        out = np.zeros(n + 1)
        pair = (h / 3.0) * (z[0:-2:2] + 4.0 * z[1:-1:2] + z[2::2])
        out[2::2] = np.cumsum(pair)
        # half panels: parabola through the three samples around each odd index
        out[1] = (h / 12.0) * (5.0 * z[0] + 8.0 * z[1] - z[2])
        if n >= 3:
            out[3::2] = out[2:-1:2] + (h / 12.0) * (-z[1:-2:2] + 8.0 * z[2:-1:2] + 5.0 * z[3::2])
        return out

    def cumint_right(self, z) -> np.ndarray:
        """Right-anchored cumulative integral: out[i] = int_{t_i}^1 z; out[-1] = 0."""
        z = self._check(z)
        return self._cumulative_forward(z[::-1])[::-1]

    # named integral operators

    def i1(self, z) -> np.ndarray:
        return self.cumint_right(z)

    def j1(self, zdot) -> np.ndarray:
        zdot = self._slope(zdot)
        return self.cumint_right(np.sqrt(1.0 - zdot**2))

    def j2(self, z, zdot) -> np.ndarray:
        zdot = self._slope(zdot)
        return self.cumint_right(np.sqrt(1.0 - zdot**2) * self.cumint_right(z))

    def _slope(self, zdot) -> np.ndarray:
        zdot = self._check(zdot)
        if np.max(np.abs(zdot)) >= 1.0:
            raise InadmissibleSlopeError("|dz/dt| reaches 1; sqrt(1 - zdot^2) kernel undefined")
        return zdot

