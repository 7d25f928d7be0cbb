"""Sampled-function calculus on [0, 1]: the uniform grid and the Chebyshev rule.

All integral operators used by the toolkit are right-anchored, i.e. they
integrate from t to 1.  On the uniform Grid they are computed by reversing
the sample array, running a cumulative composite-Simpson pass, and
reversing back.  The cumulative pass is 4th-order accurate: even indices
carry plain composite Simpson, odd indices add a half-panel integrated from
the parabola through the three nearest samples.

The Chebyshev tools at the end work on the Lobatto nodes
t_j = (1 - cos(j pi / N)) / 2: the differentiation matrix, the left- and
right-anchored integration matrices and Clenshaw evaluation of the
interpolant, all from closed forms (Trefethen, Spectral Methods in MATLAB,
2000, ch. 6 and 12).  The post-buckling collocation solves on them, and
ChebRule gives them Grid's quadrature interface, with Clenshaw-Curtis
weights (Clenshaw & Curtis, Numer. Math. 2, 1960) and the spectral
right-anchored integral: the critical-point chain integrates on it (see
modes.chain_rule).
"""

import functools

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



@functools.lru_cache(maxsize=4)
def cheb_nodes(n: int) -> np.ndarray:
    """Chebyshev-Lobatto nodes on [0, 1], t_0 = 0 and t_n = 1 exactly."""
    t = 0.5 * (1.0 - np.sin(0.5 * np.pi * (n - 2 * np.arange(n + 1)) / n))
    t.setflags(write=False)
    return t


@functools.lru_cache(maxsize=4)
def _cheb_coefficient_matrix(n: int) -> np.ndarray:
    """Node values -> coefficients a_k of sum_k a_k T_k(1 - 2t) (discrete cosine transform)."""
    jk = np.outer(np.arange(n + 1), np.arange(n + 1))
    c = np.cos(np.pi * (jk % (2 * n)) / n) * (2.0 / n)
    c[:, [0, n]] *= 0.5
    c[[0, n]] *= 0.5
    c.setflags(write=False)
    return c


@functools.lru_cache(maxsize=4)
def cheb_diff(n: int) -> np.ndarray:
    """d/dt on the node values (Trefethen's cheb with t = (1 - x) / 2; the
    diagonal is minus the off-diagonal row sum, so constants map to 0)."""
    x = 1.0 - 2.0 * cheb_nodes(n)
    c = np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)
    c[[0, n]] *= 2.0
    dx = x[:, None] - x[None, :] + np.eye(n + 1)
    d = np.outer(c, 1.0 / c) / dx
    d -= np.diag(d.sum(axis=1))
    d *= -2.0
    d.setflags(write=False)
    return d


@functools.lru_cache(maxsize=4)
def cheb_cumint(n: int) -> tuple:
    """(Q0, Q1): (Q0 z)_j = int_0^{t_j} z and (Q1 z)_j = int_{t_j}^1 z for the
    degree-n interpolant of z, by term-wise integration of its T_k series."""
    k = np.arange(1, n + 2)
    s = np.zeros((n + 2, n + 1))  # coefficients -> antiderivative coefficients in x
    s[k, k - 1] = np.where(k == 1, 1.0, 0.5 / k)
    s[k[:-2], k[:-2] + 1] = -0.5 / k[:-2]
    jk = np.outer(np.arange(n + 1), np.arange(n + 2))
    anti = np.cos(np.pi * (jk % (2 * n)) / n) @ s @ _cheb_coefficient_matrix(n)
    q0, q1 = 0.5 * (anti[0] - anti), 0.5 * (anti - anti[n])  # dt = -dx / 2
    for q in (q0, q1):
        q.setflags(write=False)
    return q0, q1


def cheb_coefficients(values) -> np.ndarray:
    """Chebyshev coefficients a_k of the interpolant through the n + 1 node values."""
    values = np.asarray(values, dtype=float)
    return _cheb_coefficient_matrix(len(values) - 1) @ values


def cheb_eval(values, t) -> np.ndarray:
    """The interpolant through the n + 1 node values at the points t, by
    Clenshaw's recurrence on its Chebyshev coefficients."""
    coef = cheb_coefficients(values)
    x2 = 2.0 * (1.0 - 2.0 * np.asarray(t, dtype=float))
    b1, b2 = np.zeros_like(x2), np.zeros_like(x2)
    for a in coef[:0:-1]:  # b_k = a_k + 2x b_{k+1} - b_{k+2}, into b_{k+2}'s array
        b2 *= -1.0
        b2 += a
        b2 += x2 * b1
        b1, b2 = b2, b1
    return coef[0] + 0.5 * x2 * b1 - b2


class ChebRule(Grid):
    """Grid's quadrature interface (t, weights, inner, norm, i1, memo) on the
    n + 1 Chebyshev-Lobatto nodes of [0, 1]: inner is the Clenshaw-Curtis
    rule (the weights are the last row of Q0) and i1 the spectral integral
    Q1 of the degree-n interpolant, both exact to roundoff for integrands
    the nodes resolve.  Build one through cheb_rule(n).
    """

    def __init__(self, n: int):
        self.n = n
        self.t = cheb_nodes(n)
        q0, self._q1 = cheb_cumint(n)
        self.weights = q0[-1]
        self._memo = {}

    def __repr__(self):
        return f"ChebRule(n={self.n})"

    def cumint_right(self, z) -> np.ndarray:
        """Right-anchored integral of the interpolant: out[i] = int_{t_i}^1 z; out[-1] = 0."""
        return self._q1 @ self._check(z)


@functools.lru_cache(maxsize=4)
def cheb_rule(n: int) -> ChebRule:
    """The ChebRule on n + 1 nodes, built on first use and then shared."""
    return ChebRule(n)
