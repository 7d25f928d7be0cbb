"""Sampled-function calculus on [0, 1]: the uniform grid and the Chebyshev rule.

All integral operators used by the toolkit are right-anchored, i.e. they
integrate from t to 1.  On the uniform Grid they are computed by reversing
the sample array, running a cumulative composite-Simpson pass, and
reversing back.  The cumulative pass is 4th-order accurate: even indices
carry plain composite Simpson, odd indices add a half-panel integrated from
the parabola through the three nearest samples.

ChebRule is the Chebyshev discretization on the Lobatto nodes
t_j = (1 - cos(j pi / N)) / 2: the coefficient transform, the
differentiation matrix, the left- and right-anchored integration matrices,
the resolution test on the tail of the coefficients and the evaluation of
the interpolant as one product of its coefficients with the Chebyshev
basis at the points, all from closed forms (Trefethen, Spectral Methods in
MATLAB, 2000, ch. 6 and 12).  It also has Grid's quadrature interface,
with Clenshaw-Curtis weights (Clenshaw & Curtis, Numer. Math. 2, 1960) and
the spectral right-anchored integral.  One rule per size, shared through
cheb_rule(n), serves both the post-buckling collocation (bvp) and the
critical-point chain (see modes.chain_rule).
"""

import functools
import operator

import numpy as np

from .errors import ConfigurationError, GridMismatchError, InadmissibleSlopeError

DEFAULT_N = 4096


class Grid:
    """Uniform grid t_i = i/n on [0, 1] with composite-Simpson weights, n even."""

    def __init__(self, n: int = DEFAULT_N):
        try:
            size = operator.index(n)
        except TypeError:
            size = 0
        if size <= 0 or size % 2 != 0:
            raise ConfigurationError(f"grid size must be a positive even integer, got {n}")
        n = size
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


class ChebRule(Grid):
    """The Chebyshev discretization on the n + 1 Lobatto nodes of [0, 1].

    Its arrays, all read-only, come from closed forms:
      t        the nodes t_j = (1 - cos(j pi / n)) / 2, t_0 = 0 and t_n = 1 exactly;
      coef     node values -> coefficients a_k of sum_k a_k T_k(1 - 2t)
               (a discrete cosine transform);
      d        d/dt on the node values (Trefethen's cheb with t = (1 - x) / 2;
               the diagonal is minus the off-diagonal row sum, so constants map to 0);
      q0, q1   (q0 z)_j = int_0^{t_j} z and (q1 z)_j = int_{t_j}^1 z for the
               degree-n interpolant of z, by term-wise integration of its T_k series;
      weights  the Clenshaw-Curtis weights, the last row of q0.
    With them it has Grid's quadrature interface (inner, norm, i1, memo):
    inner is the Clenshaw-Curtis rule and i1 the spectral integral q1, both
    exact to roundoff for integrands the nodes resolve.  Build one through
    cheb_rule(n).
    """

    def __init__(self, n: int):
        self.n = n
        self.t = 0.5 * (1.0 - np.sin(0.5 * np.pi * (n - 2 * np.arange(n + 1)) / n))
        jk = np.outer(np.arange(n + 1), np.arange(n + 1))
        self.coef = np.cos(np.pi * (jk % (2 * n)) / n) * (2.0 / n)
        self.coef[:, [0, n]] *= 0.5
        self.coef[[0, n]] *= 0.5

        x = 1.0 - 2.0 * self.t
        c = np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)
        c[[0, n]] *= 2.0
        dx = x[:, None] - x[None, :] + np.eye(n + 1)
        self.d = np.outer(c, 1.0 / c) / dx
        self.d -= np.diag(self.d.sum(axis=1))
        self.d *= -2.0

        k = np.arange(1, n + 2)
        s = np.zeros((n + 2, n + 1))  # coefficients -> antiderivative coefficients in x
        s[k, k - 1] = np.where(k == 1, 1.0, 0.5 / k)
        s[k[:-2], k[:-2] + 1] = -0.5 / k[:-2]
        jk = np.outer(np.arange(n + 1), np.arange(n + 2))
        anti = np.cos(np.pi * (jk % (2 * n)) / n) @ s @ self.coef
        self.q0, self.q1 = 0.5 * (anti[0] - anti), 0.5 * (anti - anti[n])  # dt = -dx / 2
        self.weights = self.q0[-1]
        for a in (self.t, self.coef, self.d, self.q0, self.q1, self.weights):
            a.setflags(write=False)
        self._memo = {}

    def __repr__(self):
        return f"ChebRule(n={self.n})"

    def cumint_right(self, z) -> np.ndarray:
        """Right-anchored integral of the interpolant: out[i] = int_{t_i}^1 z; out[-1] = 0."""
        return self.q1 @ self._check(z)

    def resolved(self, values, tail: float) -> bool:
        """Whether the last three Chebyshev coefficients of the interpolant
        through the node values lie within tail of its largest one."""
        coef = np.abs(self.coef @ self._check(values))
        return coef[-3:].max() <= tail * coef.max()

    def eval(self, values, t) -> np.ndarray:
        """The interpolant through the node values at the points t.

        values is one row of n + 1 node values or a stack of such rows, shape
        (k, n + 1); the result has one row of len(t) samples per row.  The
        Chebyshev coefficients of every row multiply, in one product, the
        basis T_0 ... T_n at x = 1 - 2t.  t is an array of points or a Grid;
        a Grid keeps the basis at its points in its memo (slot "cheb basis",
        keyed by n), so repeated samplings on one grid build it once.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2) or values.shape[-1] != self.n + 1:
            raise GridMismatchError(
                f"expected rows of {self.n + 1} node values, got shape {values.shape}")
        if isinstance(t, Grid):
            basis, = t.memo("cheb basis", self.n, lambda: (_chebyshev_basis(self.n, t.t),))
        else:
            basis = _chebyshev_basis(self.n, t)
        return (values @ self.coef.T) @ basis


def _chebyshev_basis(n: int, t) -> np.ndarray:
    """T_0 ... T_n at x = 1 - 2t, one row each, by the three-term recurrence."""
    x = 1.0 - 2.0 * np.asarray(t, dtype=float)
    x2 = 2.0 * x
    basis = np.empty((n + 1, x.size))
    basis[0], basis[1] = 1.0, x
    for k in range(2, n + 1):
        np.multiply(x2, basis[k - 1], out=basis[k])
        basis[k] -= basis[k - 2]
    return basis


# The collocation's 32 and 64 and the chain's 64, 128 and 256 are four sizes,
# so a post-buckling solve and a chain never evict each other's rules.  The
# collocation's residual check on 2 x 32 = 64 and 2 x 64 = 128 nodes adds no
# fifth size.
@functools.lru_cache(maxsize=4)
def cheb_rule(n: int) -> ChebRule:
    """The ChebRule on n + 1 nodes, built on first use and then shared."""
    return ChebRule(n)
