"""Harmonic building blocks: the block-Toeplitz lift of a (2h + 1, d, d)
block array, A - N, steady-state and perturbation solves, and the Fourier
references they are checked with."""

import numpy as np
import pytest
import scipy.linalg

import _reference as ref
from mmc_hss import hss_core as hc
from mmc_hss.errors import SingularSystemError


def _sample_period(period, n):
    return np.arange(n) * period / n


# ---------------------------------------------------------------- fourier


def test_fourier_constant_hits_only_dc():
    x = np.full(64, 3.25)
    assert ref.fourier(x, 0) == pytest.approx(3.25)
    assert abs(ref.fourier(x, 1)) < 1e-14
    assert abs(ref.fourier(x, -3)) < 1e-14


def test_fourier_cosine_with_phase():
    period = 0.02
    t = _sample_period(period, 128)
    x = np.cos(2 * np.pi * t / period + 0.7)
    assert ref.fourier(x, 1) == pytest.approx(0.5 * np.exp(0.7j))
    assert ref.fourier(x, -1) == pytest.approx(0.5 * np.exp(-0.7j))
    assert abs(ref.fourier(x, 0)) < 1e-14
    assert abs(ref.fourier(x, 2)) < 1e-14


def test_fourier_series_round_trip():
    rng = np.random.default_rng(7)
    period = 0.02
    h = 5
    coeffs = rng.normal(size=h) + 1j * rng.normal(size=h)
    full = np.concatenate([coeffs[::-1].conj(), [rng.normal() + 0j], coeffs])
    t = _sample_period(period, 256)
    x = ref.evaluate(full, 2 * np.pi / period, t).real
    got = [ref.fourier(x, k) for k in range(-h, h + 1)]
    np.testing.assert_allclose(got, full, atol=1e-12)


# ---------------------------------------------------------------- operators


def test_toeplitz_dc_only_is_block_diagonal():
    a0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    blocks = np.zeros((5, 2, 2), dtype=complex)
    blocks[2] = a0
    m = hc.block_toeplitz(blocks)
    for r in range(5):
        for c in range(5):
            blk = m[2 * r:2 * r + 2, 2 * c:2 * c + 2]
            if r == c:
                np.testing.assert_array_equal(blk, a0)
            else:
                assert not blk.any()


def test_toeplitz_band_placement_and_zero_fill():
    a1 = np.eye(3) * 2.0
    am1 = np.eye(3) * 5.0
    blocks = np.zeros((7, 3, 3), dtype=complex)
    blocks[3 + 1], blocks[3 - 1] = a1, am1
    m = hc.block_toeplitz(blocks)
    n = 7
    for r in range(n):
        for c in range(n):
            blk = m[3 * r:3 * r + 3, 3 * c:3 * c + 3]
            if r - c == 1:
                np.testing.assert_array_equal(blk, a1)
            elif r - c == -1:
                np.testing.assert_array_equal(blk, am1)
            else:
                assert not blk.any()


@pytest.mark.parametrize("order", [1, 4, 16])
def test_block_toeplitz_matches_a_per_block_loop(order):
    # square blocks with missing harmonics (as the MMC operator has) and
    # column blocks with every harmonic (as the loop channels have)
    rng = np.random.default_rng(order)
    n = 2 * order + 1
    square = np.zeros((n, 4, 4), dtype=complex)
    for k in {0, 1, -1, 2, -2} & set(range(-order, order + 1)):
        square[k + order] = rng.normal(size=(4, 4)) + 1j * rng.normal(
            size=(4, 4))
    column = rng.normal(size=(n, 4, 1)) + 1j * rng.normal(size=(n, 4, 1))
    for blocks in (square, column):
        r, c = blocks.shape[1:]
        want = np.zeros((n * r, n * c), dtype=complex)
        for p in range(n):
            for q in range(n):
                if abs(p - q) <= order:
                    want[p * r:(p + 1) * r, q * c:(q + 1) * c] = \
                        blocks[p - q + order]
        got = hc.block_toeplitz(blocks)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_toeplitz_matches_time_domain_product():
    # multiply x(t) by a(t) in coefficient space, compare against sampling
    # the pointwise product; interior harmonics only (truncation clips the
    # outermost ones by design)
    rng = np.random.default_rng(21)
    period = 0.02
    w1 = 2 * np.pi / period
    for h in (2, 4, 8):
        bw = 1  # factor band-limited to +-1 keeps |k| <= h-1 exact
        ac = np.zeros(2 * h + 1, dtype=complex)
        xc = np.zeros(2 * h + 1, dtype=complex)
        ac[h] = rng.normal()
        a1 = rng.normal() + 1j * rng.normal()
        ac[h + 1], ac[h - 1] = a1, np.conj(a1)
        for k in range(0, h + 1):
            v = rng.normal() + 1j * rng.normal()
            if k == 0:
                xc[h] = v.real
            else:
                xc[h + k], xc[h - k] = v, np.conj(v)
        y = hc.block_toeplitz(ac[:, None, None]) @ xc

        t = _sample_period(period, 16 * h + 16)
        a_t = ref.evaluate(ac, w1, t).real
        x_t = ref.evaluate(xc, w1, t).real
        for k in range(-(h - bw), h - bw + 1):
            want = ref.fourier(a_t * x_t, k)
            assert y[k + h] == pytest.approx(want, abs=1e-12)


def test_toeplitz_scalar_cos_squared():
    # a(t) = x(t) = cos(w1 t): product has dc 1/2 and second harmonic 1/4
    h = 2
    a = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
    y = hc.block_toeplitz(a[:, None, None]) @ a
    assert y[h] == pytest.approx(0.5)
    assert y[h + 2] == pytest.approx(0.25)
    assert y[h - 2] == pytest.approx(0.25)
    assert abs(y[h + 1]) < 1e-15


def test_shift_operator_diagonal():
    # with zero blocks A - N is -N: block k is -j*k*omega1*I
    m = hc.operator_matrix(np.zeros((3, 1, 1)), 314.0)
    np.testing.assert_allclose(np.diag(m), [314j, 0.0, -314j])
    mp = hc.operator_matrix(np.zeros((3, 2, 2)), 314.0)
    np.testing.assert_allclose(
        np.diag(mp), [314j, 314j, 0.0, 0.0, -314j, -314j]
    )
    assert not mp[~np.eye(6, dtype=bool)].any()
    # on random blocks: block (p, q) is A_{p-q} (zero past +-h), less the
    # shift on p = q
    rng = np.random.default_rng(8)
    h, d = 2, 3
    blocks = rng.normal(size=(2 * h + 1, d, d)) + 1j * rng.normal(
        size=(2 * h + 1, d, d))
    want = np.zeros(((2 * h + 1) * d,) * 2, dtype=complex)
    for p in range(2 * h + 1):
        for q in range(max(p - h, 0), min(p + h + 1, 2 * h + 1)):
            want[p * d:(p + 1) * d, q * d:(q + 1) * d] = blocks[p - q + h]
        want[p * d:(p + 1) * d, p * d:(p + 1) * d] -= np.diag(
            np.full(d, 1j * (p - h) * 314.0))
    np.testing.assert_allclose(hc.operator_matrix(blocks, 314.0),
                               want, rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------- solves


def test_steady_state_scalar_first_order():
    # xdot = -x + cos(w1 t) has X_{+-1} = 1/(2(1 +- j w1))
    w1 = 314.0
    a = np.zeros((5, 1, 1))
    a[2] = -1.0
    u = np.array([0.0, 0.5, 0.0, 0.5, 0.0], dtype=complex)
    x = hc.DenseFactor(hc.operator_matrix(a, w1)).solve(-u)
    assert x[3] == pytest.approx(1.0 / (2.0 * (1.0 + 1j * w1)))
    assert x[1] == pytest.approx(1.0 / (2.0 * (1.0 - 1j * w1)))
    assert abs(x[2]) < 1e-15
    assert ref.is_real(x, 1)


def test_perturbation_scalar_frequency_response():
    # time-invariant xdot = -x + u at offset wp: X_0 = U_0/(1 + j wp)
    wp = 85.0
    a = np.array([0.0, -1.0, 0.0])[:, None, None]
    m_p = hc.operator_matrix(a, 314.0) - 1j * wp * np.eye(3)
    x = hc.DenseFactor(m_p).solve(-np.array([0.0, 1.0, 0.0], dtype=complex))
    assert x[1] == pytest.approx(1.0 / (1.0 + 1j * wp))
    assert abs(x[2]) < 1e-15


def test_perturbation_zero_forcing_gives_zero():
    a = np.zeros((5, 3, 3))
    a[2], a[3] = -np.eye(3), 0.1 * np.ones((3, 3))
    m_p = hc.operator_matrix(a, 314.0) - 50j * np.eye(15)
    x = hc.DenseFactor(m_p).solve(np.zeros(15, dtype=complex))
    assert np.abs(x).max() == 0.0


def _random_symmetric_system(rng, h, d):
    """(2h + 1, d, d) blocks and the forcing stack of a real periodic
    system: A_-k = conj(A_k), U_-k = conj(U_k)."""
    blocks = np.zeros((2 * h + 1, d, d), dtype=complex)
    blocks[h] = -np.eye(d) * (2.0 + rng.random()) + 0.3 * rng.normal(size=(d, d))
    for k in range(1, h + 1):
        bk = 0.3 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        blocks[h + k], blocks[h - k] = bk, bk.conj()
    u = np.zeros((2 * h + 1, d), dtype=complex)
    u[h] = rng.normal(size=d)
    for k in range(1, h + 1):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        u[h + k], u[h - k] = v, v.conj()
    return blocks, u.ravel()


def test_solve_preserves_conjugate_symmetry_and_residual():
    rng = np.random.default_rng(42)
    for h, d in ((2, 2), (4, 4), (6, 3)):
        a, u = _random_symmetric_system(rng, h, d)
        x = hc.DenseFactor(hc.operator_matrix(a, 314.159)).solve(-u)
        assert ref.is_real(x, d, tol=1e-10)
        res = hc.operator_matrix(a, 314.159) @ x + u
        scale = max(np.abs(x).max(), 1.0)
        assert np.abs(res).max() <= 1e-9 * scale


def test_singular_system_raises_with_estimate():
    # A = diag(j w1) cancels N exactly at harmonic +1
    a = np.array([0.0, 314.0j, 0.0])[:, None, None]
    with pytest.raises(SingularSystemError) as err:
        hc.DenseFactor(hc.operator_matrix(a, 314.0)).solve(
            -np.array([0.0, 1.0, 0.0], dtype=complex))
    assert err.value.cond_estimate > 1e12
    # invertible, but past COND_LIMIT
    with pytest.raises(SingularSystemError,
                       match="too ill-conditioned") as err:
        hc.DenseFactor(np.diag([1.0, 1e-13]))
    assert err.value.cond_estimate > hc.COND_LIMIT


def test_dense_factor_condition_is_exact_and_never_below_lapacks():
    # ||m||_1 ||m^-1||_1 bounds LAPACK's estimate from above; where the
    # estimate is exact (always at n = 1) the two differ by roundoff only
    rng = np.random.default_rng(17)
    for n in (1, 4, 12, 40):
        for scale in (1.0, 1e-4):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m[:, 0] *= scale
            cond = hc.DenseFactor(m).cond_estimate
            exact = np.linalg.norm(m, 1) * np.linalg.norm(np.linalg.inv(m), 1)
            assert cond == pytest.approx(exact, rel=1e-12)
            assert cond >= ref.lapack_cond(m) * (1.0 - 1e-14)


def test_dense_factor_refuses_zero_and_exactly_singular_matrices():
    m = np.random.default_rng(4).normal(size=(6, 6)) + 0j
    with pytest.raises(SingularSystemError, match="system matrix is zero"):
        hc.DenseFactor(np.zeros_like(m))
    m[:, 2] = 0.0
    with pytest.raises(SingularSystemError,
                       match="system matrix is singular") as err:
        hc.DenseFactor(m)
    assert err.value.cond_estimate == float("inf")


def test_shifted_solver_modes_are_complex_for_a_real_spectrum():
    # a symmetric operator of order 0: LAPACK returns its real eigenvalues
    # in a real array
    a0 = np.diag([-1.0, -2.0, -3.0]) + 0.1
    solver = hc.ShiftedSolver(
        hc.operator_matrix(a0[None].astype(complex), 314.0), 0)
    assert solver.eigvals.dtype == complex
    np.testing.assert_allclose(np.sort(solver.eigvals.real),
                               np.linalg.eigvalsh(a0), rtol=1e-14)
    assert not solver.eigvals.imag.any()


# ---------------------------------------------------------------- reconstruct


def test_reconstruct_constant_and_cosine():
    t = np.linspace(0.0, 0.04, 11)
    np.testing.assert_allclose(ref.evaluate([0.0, 2.5, 0.0], 314.0, t).real,
                               2.5)

    c = [0.5, 0.0, 0.5]
    np.testing.assert_allclose(
        ref.evaluate(c, 314.0, t).real, np.cos(314.0 * t), atol=1e-14
    )
    assert np.abs(ref.evaluate(c, 314.0, t).imag).max() < 1e-14


def test_real_signal_detection():
    assert ref.is_real([1 - 1j, 0.0, 1 + 1j], 1)
    assert not ref.is_real([1 + 1j, 0.0, 1 + 1j], 1)


def test_shifted_check_bounds_the_condition_number_for_every_shift():
    # check's modal bound is no smaller than the exact 1-norm condition
    # number of M0 - j*omega*I or LAPACK's estimate of it, repeats bitwise
    # and leaves M0 alone
    rng = np.random.default_rng(3)
    a = _random_symmetric_system(rng, 2, 8)[0]
    solver = hc.ShiftedSolver(hc.operator_matrix(a, 314.0), 2)
    m0_before = solver.m0.copy()
    bounds = {}
    for omega in (0.0, 250.0, -3.5, 1e4, 250.0):
        bound = solver.check(omega)
        shifted = solver.m0 - 1j * omega * np.eye(40)
        assert bound >= np.linalg.cond(shifted, 1)
        assert bound >= ref.lapack_cond(shifted)
        assert bounds.setdefault(omega, bound) == bound
    np.testing.assert_array_equal(solver.m0, m0_before)
    # a scalar operator has kappa_1(v) = 1 and condition number 1, where
    # the bound (1 + |omega|) / |1 + j*omega| lies in [1, sqrt(2)]
    scalar = hc.ShiftedSolver(
        hc.operator_matrix(np.full((1, 1, 1), -1.0), 314.0), 0)
    for omega in (0.0, 250.0, -3.5, 1e4):
        assert 1.0 <= scalar.check(omega) <= np.sqrt(2.0)


def test_shifted_check_raises_on_an_eigenvalue_at_the_shift():
    # the first state is decoupled from the others, so at order 1 the
    # shift block -1 gives M0 the exact eigenvalue j*omega1 = 250j, in the
    # real form and in the modal form
    rng = np.random.default_rng(3)
    blocks, _ = _random_symmetric_system(rng, 1, 13)
    blocks[:, :, 0] = blocks[:, 0, :] = 0.0
    solver = hc.ShiftedSolver(hc.operator_matrix(blocks, 250.0), 1)
    with pytest.raises(SingularSystemError, match="singular"):
        solver.check(250.0)
    assert solver.check(251.0) <= hc.COND_LIMIT
    # an eigenvalue 1e-13 from the shift: nonsingular, but past COND_LIMIT
    near = hc.ShiftedSolver(np.diag([-1e-13, -1.0]), 0)
    with pytest.raises(SingularSystemError,
                       match="too ill-conditioned") as err:
        near.check(0.0)
    assert err.value.cond_estimate > hc.COND_LIMIT


def _dense_shifted_solve(m0, omega, b):
    return scipy.linalg.solve(m0 - 1j * omega * np.eye(len(m0)), b)


def test_modal_solve_matches_a_dense_solve():
    # v @ solve(omegas, v_inv @ b) is (M0 - j*omega*I)^-1 b for every shift,
    # with one right-hand side shared by all shifts or one block per shift
    rng = np.random.default_rng(11)
    a = _random_symmetric_system(rng, 2, 8)[0]
    b = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    omegas = [0.0, 250.0, -3.5, 1e4]
    solver = hc.ShiftedSolver(hc.operator_matrix(a, 314.0), 2)
    m0 = solver.m0
    shared = solver.solve(omegas, solver.v_inv @ b)
    blocks = solver.solve(omegas, np.stack(
        [solver.v_inv @ ((p + 1) * b) for p in range(4)], axis=1))
    assert shared.shape == blocks.shape == (40, 4, 3)
    for p, omega in enumerate(omegas):
        want = _dense_shifted_solve(m0, omega, b)
        scale = np.abs(want).max()
        np.testing.assert_allclose(solver.v @ shared[:, p], want,
                                   rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(solver.v @ blocks[:, p],
                                   (p + 1) * want, rtol=0.0,
                                   atol=1e-12 * (p + 1) * scale)


@pytest.mark.parametrize("entry", [(1, 1), (1, 0)])
def test_nearly_defective_operator_raises_or_solves_accurately(entry):
    # a 2x2 Jordan block, perturbed by 1e-14 on its diagonal or in its
    # corner, inside an orthogonal similarity of a random real 40x40
    # operator of order 0: the modal solve must either be accurate or
    # refuse the operator
    rng = np.random.default_rng(12)
    a0 = np.zeros((40, 40))
    a0[:2, :2] = [[2.0, 1.0], [0.0, 2.0]]
    a0[entry] += 1e-14
    a0[2:, 2:] = rng.standard_normal((38, 38))
    q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    a = (q @ a0 @ q.T)[None]
    b = rng.standard_normal((40, 1)) + 1j * rng.standard_normal((40, 1))
    omegas = [0.0, 250.0, -3.5, 1e4]
    try:
        solver = hc.ShiftedSolver(hc.operator_matrix(a, 314.0), 0)
    except SingularSystemError as err:
        assert err.cond_estimate > hc.MODE_COND_LIMIT
        return
    m0 = solver.m0
    y = solver.solve(omegas, solver.v_inv @ b)
    for p, omega in enumerate(omegas):
        want = _dense_shifted_solve(m0, omega, b)
        assert (np.abs(solver.v @ y[:, p] - want).max()
                <= 1e-9 * np.abs(want).max())


def test_an_operator_of_a_complex_system_is_refused(monkeypatch):
    # blocks k and -k that are not conjugate have no real form: refused
    # before any eigendecomposition
    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK called")

    monkeypatch.setattr(hc, "eig", no_lapack)
    monkeypatch.setattr(hc, "inv", no_lapack)
    rng = np.random.default_rng(5)
    a = _random_symmetric_system(rng, 2, 8)[0]
    skewed = a.copy()
    skewed[2 - 1] *= 1.0 + 1e-6j
    with pytest.raises(ValueError, match="conjugate"):
        hc.ShiftedSolver(hc.operator_matrix(skewed, 314.0), 2)
    complex_dc = a.copy()
    complex_dc[2] += 1e-3j
    with pytest.raises(ValueError, match="conjugate"):
        hc.ShiftedSolver(hc.operator_matrix(complex_dc, 314.0), 2)
