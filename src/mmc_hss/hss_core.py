"""Harmonic state-space building blocks.

A real T-periodic signal x(t) is carried as the stack of its complex Fourier
coefficients [X_{-h}, ..., X_0, ..., X_h]. A periodic (d, d) coefficient
is the plain array of its Fourier blocks, A_k at blocks[k + h], shape
(2h + 1, d, d); multiplication by it is the block-Toeplitz lift of that
array, d/dt a block-diagonal frequency shift. The periodic steady state
of a linear time-periodic system is one DenseFactor solve; its responses to a
perturbation at many values of the Laplace variable s share one real
eigendecomposition of the unshifted operator, each s an elementwise
scaling with an O(n) condition bound. Both take a dense operator, so a
caller that knows a symmetry of its system can hand them the operator on
one invariant subspace, with the same number of states for every
harmonic. One rule (refusal) turns every condition number or bound into
the error that refuses its system. Every factorisation and product goes
through NumPy, so one BLAS and LAPACK build, with one thread pool, does
all the dense work. Nothing here knows about converters.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError, eig, inv

from .errors import SingularSystemError

# Solves refuse past this condition number or bound (MMC legs < 1e9),
# modal forms past this kappa_1(v), a precision loss (MMC legs <= 1.7e4),
# and real forms of M0 past this 1-norm ratio of imaginary part: roundoff
# in conj(A_k) (exactly 0 on MMC legs)
COND_LIMIT, MODE_COND_LIMIT, _REAL_RTOL = 1e12, 1e6, 1e-14


def block_toeplitz(blocks: np.ndarray) -> np.ndarray:
    """Dense block-Toeplitz lift of the blocks A_k = blocks[k + order].

    blocks is (2*order + 1, r, c) for k = -order..order. The result is
    (n*r, n*c) with n = 2*order + 1: block (p, q) is A_{p-q}, zero where
    |p - q| > order. It is a fresh C-contiguous array the caller may modify.
    """
    n, r, c = blocks.shape
    # padded[j] = A_{j - (n - 1)}: index p - q + n - 1 covers every (p, q)
    padded = np.zeros((2 * n - 1, r, c), dtype=complex)
    padded[n // 2:n // 2 + n] = blocks
    lifted = padded[np.subtract.outer(np.arange(n), np.arange(n)) + n - 1]
    return lifted.transpose(0, 2, 1, 3).reshape(n * r, n * c)


def inverses(m: np.ndarray):
    """Inverses of the square matrices m (..., n, n) and each one's exact
    1-norm condition number ||m||_1 ||m^-1||_1, a scalar for one matrix.
    An exactly singular matrix gets a NaN inverse and an infinite number.
    """
    m = np.asarray(m)
    singular = np.zeros(m.shape[:-2], dtype=bool)
    try:
        m_inv = inv(m)
    except LinAlgError:
        m_inv = np.full(m.shape, np.nan, dtype=np.result_type(m, float))
        for p in np.ndindex(singular.shape):
            try:
                m_inv[p] = inv(m[p])
            except LinAlgError:
                singular[p] = True
    cond = (np.abs(m).sum(axis=-2).max(axis=-1, initial=0.0)
            * np.abs(m_inv).sum(axis=-2).max(axis=-1, initial=0.0))
    return m_inv, np.where(singular, np.inf, cond)[()]


def refusal(cond, what: str):
    """None for a condition number or bound cond within COND_LIMIT, else
    the SingularSystemError that refuses the system `what`: singular at an
    infinite cond, too ill-conditioned past the limit."""
    if cond <= COND_LIMIT:
        return None
    if cond == np.inf:
        return SingularSystemError(f"{what} is singular", float("inf"))
    return SingularSystemError(
        f"{what} too ill-conditioned (cond ~ {cond:.3e})", cond)


class DenseFactor:
    """Dense inverse with its exact 1-norm condition number, reusable for
    several right-hand sides.

    cond_estimate is ||m||_1 ||m^-1||_1 (inverses), never below LAPACK's
    gecon estimate of it. Raises the refusal of that number (with it
    attached) when it exceeds COND_LIMIT, rather than returning noise.
    """

    def __init__(self, m: np.ndarray):
        m = np.asarray(m, dtype=complex)
        if not m.any():
            raise SingularSystemError("system matrix is zero", float("inf"))
        self._inv, self.cond_estimate = inverses(m)
        if error := refusal(self.cond_estimate, "system matrix"):
            raise error
        self._m = m

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = self._inv @ rhs
        # one step of iterative refinement keeps residuals at roundoff level
        # even when cond approaches the guard
        x += self._inv @ (rhs - self._m @ x)
        return x


def _pair(x: np.ndarray, order: int, p, q, r, t) -> np.ndarray:
    """x with each pair of row blocks (k, -k), k >= 1, of a harmonic stack
    replaced by (p*X_k + q*X_-k, r*X_k + t*X_-k); block 0 is kept."""
    x = x.reshape(2 * order + 1, -1, x.shape[-1])
    hi, lo = x[order + 1:], x[:order][::-1]
    return np.concatenate([(r * hi + t * lo)[::-1], x[order:order + 1],
                           p * hi + q * lo]).reshape(-1, x.shape[-1])


class ShiftedSolver:
    """Solves (M0 - s*I) X = B for many complex shifts s from one
    eigendecomposition M0 = v diag(eigvals) v_inv (Laub, IEEE TAC 26(2),
    1981): right-hand sides go in as v_inv @ b, each shift is a scaling of
    modal coordinates, and solutions come out as v @ y.

    M0 is the dense operator of a harmonic stack of truncation order
    `order`, with the same d states for each harmonic k at rows
    d(k + order) on, such as operator_matrix's A - N. It must be the
    operator of a real periodic system, its blocks (k, l) and (-k, -l)
    conjugate, else ValueError. In the basis X_0, X_k + X_-k,
    j(X_k - X_-k) it is a real M_r = U^-1 M0 U, whose eigenvectors V_r
    give v = U V_r and v_inv = V_r^-1 U^-1, both from NumPy's LAPACK.
    bounds takes a batch of shifts at once, and refuses none of them."""

    def __init__(self, m0: np.ndarray, order: int):
        self.m0 = m0 = np.asarray(m0, dtype=complex)
        # U^-1 M0 U: pair the columns of blocks k and -k, then the rows
        real = _pair(_pair(m0.T, order, 1, 1, 1j, -1j).T,
                     order, .5, .5, -.5j, .5j)
        if not (np.linalg.norm(real.imag, 1)
                <= _REAL_RTOL * np.linalg.norm(real, 1)):
            raise ValueError("operator blocks k and -k are not conjugate")
        try:
            eigvals, v_r = eig(real.real)
            # an ill-conditioned V_r fails the guard below
            v_r_inv = inv(v_r)
        except LinAlgError:
            raise SingularSystemError("eigendecomposition failed",
                                      float("inf")) from None
        # complex even where eig returns a real spectrum as a real array
        self.eigvals = eigvals.astype(complex)
        self.v = _pair(v_r, order, 1, 1j, 1, -1j)
        self.v_inv = _pair(v_r_inv.T, order, .5, -.5j, .5, .5j).T
        cond = np.linalg.norm(self.v, 1) * np.linalg.norm(self.v_inv, 1)
        if not cond <= MODE_COND_LIMIT:
            raise SingularSystemError(
                f"nearly defective operator (modes cond ~ {cond:.3e})", cond)
        self.mode_cond, self._norm = cond, np.linalg.norm(m0, 1)

    def bounds(self, shifts) -> np.ndarray:
        """(||M0||_1 + |s|) kappa_1(v) / min|eigvals - s| for every complex
        shift s, an O(n) bound on cond_1(M0 - s*I), whose inverse is
        v diag(1/(eigvals - s)) v_inv; inf where a mode lies exactly on
        the shift."""
        s = np.asarray(shifts, dtype=complex)
        gap = np.abs(self.eigvals[:, None] - s).min(axis=0)
        return np.divide((self._norm + np.abs(s)) * self.mode_cond, gap,
                         out=np.full(gap.shape, np.inf), where=gap > 0.0)

    def solve(self, shifts, b: np.ndarray) -> np.ndarray:
        """Y with (diag(eigvals) - shifts[p]*I) Y[:, p] = b[:, p] for every
        complex shift p.

        b is (n, k), shared by all shifts, or (n, P, k) with one block per
        shift; returns (n, P, k).
        """
        pivots = self.eigvals[:, None] - np.asarray(shifts, dtype=complex)
        return (b[:, None] if b.ndim == 2 else b) / pivots[:, :, None]


def operator_matrix(blocks: np.ndarray, omega1: float) -> np.ndarray:
    """Dense A - N, with A the block_toeplitz lift of the (2h + 1, d, d)
    blocks and N the block-diagonal frequency shift whose block k is
    j*k*omega1*I."""
    h, dim = len(blocks) // 2, blocks.shape[1]
    m = block_toeplitz(blocks)
    m[np.diag_indices_from(m)] -= np.repeat(
        1j * (np.arange(-h, h + 1) * omega1), dim)
    return m
