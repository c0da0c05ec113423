"""Harmonic state-space building blocks.

A real T-periodic signal x(t) is carried as the stack of its complex Fourier
coefficients [X_{-h}, ..., X_0, ..., X_h]. Multiplication by a periodic
coefficient becomes a block-Toeplitz operator on the stack, d/dt becomes a
block-diagonal frequency shift. The periodic steady state of a linear
time-periodic system is one dense linear solve; its responses to a
perturbation at many frequencies share one modal form of the unshifted
operator: each frequency is an elementwise scaling with an O(n) condition
bound. Nothing here knows about converters; it is multi-harmonic algebra.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import (LinAlgError, LinAlgWarning, eig, get_blas_funcs,
                          get_lapack_funcs, inv, lu_factor, lu_solve)

from .errors import SingularSystemError

# Solves refuse past this condition estimate or bound (MMC legs < 1e9), and
# modal forms past this kappa_1(W), a precision loss (MMC legs <= 2.3e4)
COND_LIMIT, MODE_COND_LIMIT = 1e12, 1e6

_GEMM, = get_blas_funcs(("gemm",), dtype=complex)


def _readonly(a):
    a = np.asarray(a)
    a.setflags(write=False)
    return a


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


@dataclass(frozen=True)
class ToeplitzOperator:
    """Block-Toeplitz operator: block (r, c) is A_{r-c}, zero past +-order.

    Acting on a harmonic stack this is multiplication of the underlying
    time signal by the periodic matrix whose Fourier blocks are A_k,
    truncated to the +-order window.
    """

    order: int
    dim: int
    blocks: dict = field(repr=False)

    def __post_init__(self):
        clean = {}
        for k, b in self.blocks.items():
            if abs(k) > self.order:
                raise ValueError(f"block index {k} outside truncation +-{self.order}")
            b = np.asarray(b, dtype=complex)
            if b.shape != (self.dim, self.dim):
                raise ValueError(
                    f"block {k} must be {self.dim}x{self.dim}, got {b.shape}"
                )
            clean[int(k)] = _readonly(b)
        object.__setattr__(self, "blocks", clean)

    @property
    def matrix(self) -> np.ndarray:
        blocks = np.zeros((2 * self.order + 1, self.dim, self.dim),
                          dtype=complex)
        for k, b in self.blocks.items():
            blocks[k + self.order] = b
        return block_toeplitz(blocks)


class DenseFactor:
    """LU factorization with a 1-norm condition estimate, reusable for
    several right-hand sides.

    Raises SingularSystemError (with the estimate attached) when the
    condition estimate exceeds COND_LIMIT, rather than returning noise.
    """

    def __init__(self, m: np.ndarray):
        m = np.ascontiguousarray(m, dtype=complex)
        anorm = np.linalg.norm(m, 1)
        if anorm == 0.0:
            raise SingularSystemError("system matrix is zero", float("inf"))
        with warnings.catch_warnings():
            # exact singularity is detected below via the condition estimate
            warnings.simplefilter("ignore", LinAlgWarning)
            self._lu = lu_factor(m)
        gecon, = get_lapack_funcs(("gecon",), (m,))
        rcond, info = gecon(self._lu[0], anorm)
        if info != 0 or not np.isfinite(rcond) or rcond <= 0.0:
            raise SingularSystemError("system matrix is singular", float("inf"))
        self.cond_estimate = 1.0 / rcond
        if self.cond_estimate > COND_LIMIT:
            raise SingularSystemError(
                f"system matrix too ill-conditioned "
                f"(cond ~ {self.cond_estimate:.3e})", self.cond_estimate
            )
        self._m = m

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = lu_solve(self._lu, rhs)
        # one step of iterative refinement keeps residuals at roundoff level
        # even when cond approaches the guard
        mx = matmul(self._m, x.reshape(len(x), -1)).reshape(x.shape)
        x += lu_solve(self._lu, rhs - mx)
        return x


def solve_dense(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One-shot guarded LU solve; see DenseFactor."""
    return DenseFactor(m).solve(rhs)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-d complex arrays, through SciPy's BLAS.

    NumPy and SciPy each bundle an OpenBLAS with its own worker threads. A
    NumPy product big enough to be threaded leaves NumPy's workers
    spinning, and the SciPy LAPACK calls that follow it (Schur forms,
    condition estimates, factorisations) then wait for a free core: on a
    2-core machine a 132-by-132 LU that takes 0.5 ms took 4 ms at the
    median and up to 125 ms, at random. The engine's products therefore
    go through here, so one thread pool serves all of its BLAS and LAPACK
    work.
    """
    if 0 in a.shape or 0 in b.shape:
        return np.zeros((a.shape[0], b.shape[1]), dtype=complex)
    if a.flags.c_contiguous:
        # (b^T a^T)^T: a^T is Fortran-ordered, so a is not copied
        return _GEMM(1.0, b.T, a.T).T
    return _GEMM(1.0, a, b)


class ShiftedSolver:
    """Solves (M0 - j*omega*I) X = B for many shifts omega from one complex
    Schur form M0 = Q T Q^H (Laub, "Efficient multivariable frequency
    response computations", IEEE TAC 26(2), 1981).

    With T = W diag(eigvals) W^-1 taken once too, every shift is an
    elementwise scaling in modal coordinates: right-hand sides go in as
    v_inv @ b (v_inv = W^-1 Q^H) and solutions come out as v @ y (v = Q W).
    A nearly defective M0 raises SingularSystemError here. Like matmul, it
    uses SciPy's BLAS and LAPACK only.
    """

    def __init__(self, m0: np.ndarray):
        self.m0 = np.asarray(m0, dtype=complex)
        gees, = get_lapack_funcs(("gees",), (self.m0,))
        # the minimum workspace spares the size query, which allocates a
        # second copy of the matrix and of Q; at these sizes it is as fast
        self.t, _, _, q, _, info = gees(
            lambda x: None, self.m0.copy(order="F"),
            lwork=max(1, 2 * len(self.m0)), overwrite_a=True)
        if info != 0:
            raise SingularSystemError("Schur form did not converge",
                                      float("inf"))
        # SciPy's eig and inv, not NumPy's, which wake NumPy's BLAS threads
        self.eigvals, w = eig(self.t, check_finite=False)
        # ||T - jwI||_1 <= max_j(offdiag_j + |eigvals_j - jw|): off-diagonal
        # column sums of |T| plus |t_jj - eigvals_j| (0 when they agree)
        self._offdiag = (np.abs(np.triu(self.t, 1)).sum(axis=0)
                         + np.abs(np.diag(self.t) - self.eigvals))
        with warnings.catch_warnings():
            # a singular or ill-conditioned W fails the guard below
            warnings.simplefilter("ignore", LinAlgWarning)
            try:
                w_inv = inv(w, check_finite=False)
            except LinAlgError:
                w_inv = np.full_like(w, np.inf)
        cond = np.abs(w).sum(axis=0).max() * np.abs(w_inv).sum(axis=0).max()
        if not cond <= MODE_COND_LIMIT:
            raise SingularSystemError(
                f"nearly defective operator (modes cond ~ {cond:.3e})", cond)
        self.mode_cond = cond
        self.v, self.v_inv = matmul(q, w), _GEMM(1.0, w_inv, q, trans_b=2)

    def check(self, omega: float) -> float:
        """||T - j*omega*I||_1 * kappa_1(W) / min|eigvals - j*omega|, an
        O(n) bound on the 1-norm condition number of T - j*omega*I. Raises
        SingularSystemError (with the bound attached) past COND_LIMIT.
        """
        dist = np.abs(self.eigvals - 1j * omega)
        gap = dist.min()
        if not gap > 0.0:
            raise SingularSystemError("shifted system matrix is singular",
                                      float("inf"))
        cond = (self._offdiag + dist).max() * self.mode_cond / gap
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


def operator_matrix(a: ToeplitzOperator, omega1: float,
                    omega_off: float = 0.0) -> np.ndarray:
    """Dense A - N, with N the block-diagonal frequency shift whose block k
    is j(omega_off + k*omega1)*I: with an offset omega_off, the operator of
    the response to a forcing at that offset."""
    ks = np.arange(-a.order, a.order + 1)
    m = a.matrix
    m[np.diag_indices_from(m)] -= np.repeat(1j * (omega_off + ks * omega1),
                                            a.dim)
    return m


def solve_steady_state(a: ToeplitzOperator, omega1: float,
                       u: np.ndarray) -> np.ndarray:
    """Periodic steady state of dx/dt = A(t)x + u(t): X = -(A - N)^{-1} U,
    with U and X harmonic stacks (block k at rows (k + order)*dim on)."""
    if np.shape(u) != (a.dim * (2 * a.order + 1),):
        raise ValueError("operator/vector shapes disagree")
    return solve_dense(operator_matrix(a, omega1), -u)
