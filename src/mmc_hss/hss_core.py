"""Harmonic state-space building blocks.

A real T-periodic signal x(t) is carried as the stack of its complex Fourier
coefficients [X_{-h}, ..., X_0, ..., X_h]. A periodic (d, d) coefficient
is the plain array of its Fourier blocks, A_k at blocks[k + h], shape
(2h + 1, d, d); multiplication by it is the block-Toeplitz lift of that
array, d/dt a block-diagonal frequency shift. The periodic steady state
of a linear time-periodic system is one DenseFactor solve; its responses to a
perturbation at many frequencies share one real eigendecomposition of the
unshifted operator, each frequency an elementwise scaling with an O(n)
condition bound. Both take a dense operator, so a caller that knows a
symmetry of its system can hand them the operator on one invariant
subspace, with the same number of states for every harmonic. Every
factorisation and product goes through NumPy, so one BLAS and LAPACK
build, with one thread pool, does all the dense work. Nothing here knows
about converters.
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


class DenseFactor:
    """Dense inverse with its exact 1-norm condition number, reusable for
    several right-hand sides.

    cond_estimate is ||m||_1 ||m^-1||_1, never below LAPACK's gecon
    estimate of it. Raises SingularSystemError (with that number
    attached) when it exceeds COND_LIMIT, rather than returning noise.
    """

    def __init__(self, m: np.ndarray):
        m = np.asarray(m, dtype=complex)
        anorm = np.linalg.norm(m, 1)
        if anorm == 0.0:
            raise SingularSystemError("system matrix is zero", float("inf"))
        try:
            self._inv = inv(m)
        except LinAlgError:
            raise SingularSystemError("system matrix is singular",
                                      float("inf")) from None
        self.cond_estimate = anorm * np.linalg.norm(self._inv, 1)
        if not self.cond_estimate <= COND_LIMIT:
            raise SingularSystemError(
                f"system matrix too ill-conditioned "
                f"(cond ~ {self.cond_estimate:.3e})", self.cond_estimate
            )
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
    """Solves (M0 - j*omega*I) X = B for many shifts omega from one
    eigendecomposition M0 = v diag(eigvals) v_inv (Laub, IEEE TAC 26(2),
    1981): right-hand sides go in as v_inv @ b, each shift is a scaling of
    modal coordinates, and solutions come out as v @ y.

    M0 is the dense operator of a harmonic stack of truncation order
    `order`, with the same d states for each harmonic k at rows
    d(k + order) on, such as operator_matrix's A - N. It must be the
    operator of a real periodic system, its blocks (k, l) and (-k, -l)
    conjugate, else ValueError. In the basis X_0, X_k + X_-k,
    j(X_k - X_-k) it is a real M_r = U^-1 M0 U, whose eigenvectors V_r
    give v = U V_r and v_inv = V_r^-1 U^-1, both from NumPy's LAPACK."""

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

    def check(self, omega: float) -> float:
        """(||M0||_1 + |omega|) kappa_1(v) / min|eigvals - j*omega|, an O(n)
        bound on cond_1(M0 - j*omega*I), whose inverse is v diag(1/(eigvals
        - j*omega)) v_inv; past COND_LIMIT it raises SingularSystemError."""
        gap = np.abs(self.eigvals - 1j * omega).min()
        if not gap > 0.0:
            raise SingularSystemError("shifted system matrix is singular",
                                      float("inf"))
        cond = (self._norm + abs(omega)) * self.mode_cond / gap
        if not cond <= COND_LIMIT:
            raise SingularSystemError(
                f"shifted system matrix too ill-conditioned "
                f"(cond ~ {cond:.3e})", cond)
        return cond

    def solve(self, omegas, b: np.ndarray) -> np.ndarray:
        """Y with (diag(eigvals) - j*omegas[p]*I) Y[:, p] = b[:, p] for
        every shift p.

        b is (n, k), shared by all shifts, or (n, P, k) with one block per
        shift; returns (n, P, k).
        """
        pivots = self.eigvals[:, None] - 1j * np.asarray(omegas, dtype=float)
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
