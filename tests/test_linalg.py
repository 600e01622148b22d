"""Tests for the complex linear-algebra primitives."""

from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fddjam.channel import ChannelCovariance
from fddjam.linalg import (
    _bundled_openblas,
    _complex_normals,
    _real_times,
    _single_blas_thread,
    haar_orthonormal_columns,
    require_orthonormal_columns,
    solve_hpd,
)
from oracles import (
    complex_normals,
    haar_one_by_one,
    jacobi_eigenvalues,
    random_hermitian,
    sample_complex_gaussian,
)

# Relative Frobenius tolerance for rebuilding a matrix from its eigenpairs.
EVD_RECONSTRUCTION_RTOL = 1e-9

# Relative residual guaranteed by the positive-definite solver.
HPD_RESIDUAL_RTOL = 1e-10


def exp_corr(n, r):
    return (r ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))).astype(
        np.complex128
    )


def evd(matrix):
    """Eigendecomposition of a PSD matrix, as ``ChannelCovariance`` holds it."""
    return ChannelCovariance.from_matrix(matrix, unit_diagonal=False)


def eigenpairs(matrix):
    cov = evd(matrix)
    return cov.eigenvalues, cov.eigenvectors


class TestHermitianEvd:
    """The Hermitian eigendecomposition done by ``ChannelCovariance.from_matrix``."""

    def test_identity_keeps_index_order(self):
        cov = evd(np.eye(3))
        np.testing.assert_allclose(cov.eigenvalues, np.ones(3))
        # degenerate spectrum: stable tie-break keeps the standard basis order
        np.testing.assert_allclose(cov.eigenvectors, np.eye(3), atol=1e-12)

    def test_two_by_two_closed_form(self):
        cov = evd([[1.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(cov.eigenvalues, [1.5, 0.5], atol=1e-14)
        top = cov.eigenvectors[:, 0]
        overlap = abs(np.vdot(top, np.array([1.0, 1.0]) / np.sqrt(2)))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_exponential_4x4_matches_independent_solver(self):
        a = exp_corr(4, 0.7)
        cov = evd(a)
        np.testing.assert_allclose(cov.eigenvalues, jacobi_eigenvalues(a), atol=1e-9)

    @pytest.mark.parametrize("n", [2, 5, 16, 64])
    def test_eigenvalue_sum_equals_trace(self, n):
        a = random_hermitian(n, np.random.default_rng(n), definite=True)
        cov = evd(a)
        trace = float(np.trace(a).real)
        assert cov.eigenvalues.sum() == pytest.approx(trace, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_orthonormality_and_reconstruction(self, n):
        a = random_hermitian(n, np.random.default_rng(100 + n), definite=True)
        cov = evd(a)
        gram = cov.eigenvectors.conj().T @ cov.eigenvectors
        assert np.linalg.norm(gram - np.eye(n)) <= 1e-10
        rebuilt = (cov.eigenvectors * cov.eigenvalues) @ cov.eigenvectors.conj().T
        rel = np.linalg.norm(rebuilt - a) / np.linalg.norm(a)
        assert rel <= EVD_RECONSTRUCTION_RTOL

    def test_eigenvalues_descending(self):
        cov = evd(random_hermitian(12, np.random.default_rng(3), definite=True))
        assert np.all(np.diff(cov.eigenvalues) <= 0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            evd(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            evd([[1.0, 1e-8], [0.0, 1.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            evd([[np.nan, 0.0], [0.0, 1.0]])


class TestSolveHpd:
    def test_identity(self):
        b = np.arange(6, dtype=float).reshape(3, 2) + 0j
        np.testing.assert_allclose(solve_hpd(np.eye(3), b), b)

    def test_scalar_matrix(self):
        x = solve_hpd(2.0 * np.eye(3), np.eye(3))
        np.testing.assert_allclose(x, 0.5 * np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_residual_bound_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(5, rng, definite=True)
        b = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        x = solve_hpd(a, b)
        residual = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        assert residual <= HPD_RESIDUAL_RTOL

    def test_vector_rhs(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(4, rng, definite=True)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = solve_hpd(a, b)
        assert x.shape == (4,)
        np.testing.assert_allclose(a @ x, b, atol=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(np.linalg.LinAlgError):
            solve_hpd(-np.eye(3), np.eye(3))

    def test_rejects_singular(self):
        x = np.random.default_rng(0).standard_normal((5, 2))
        with pytest.raises(np.linalg.LinAlgError):
            solve_hpd((x @ x.T).astype(complex), np.eye(5))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_hpd(np.eye(3), np.ones((4, 2)))

    def test_real_system_gives_float64(self):
        a = exp_corr(4, 0.5).real
        x = solve_hpd(a, np.eye(4))
        assert x.dtype == np.float64
        np.testing.assert_allclose(a @ x, np.eye(4), atol=1e-12)

    def test_real_lhs_with_complex_rhs_gives_complex128(self):
        a = exp_corr(4, 0.5).real
        b = np.ones((4, 2)) + 1j * np.arange(8).reshape(4, 2)
        x = solve_hpd(a, b)
        assert x.dtype == np.complex128
        np.testing.assert_allclose(a @ x, b, atol=1e-12)

    def test_complex_lhs_with_real_rhs_gives_complex128(self):
        a = exp_corr(4, 0.5)
        assert solve_hpd(a, np.eye(4)).dtype == np.complex128

    def test_real_lhs_with_complex_rhs_has_the_bits_of_a_complex_lhs(self):
        rng = np.random.default_rng(6)
        a = exp_corr(6, 0.7).real
        b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        assert np.array_equal(solve_hpd(a, b), solve_hpd(a.astype(np.complex128), b))

    @pytest.mark.parametrize(
        "a", [-np.eye(3), np.ones((3, 3))], ids=["indefinite", "singular"]
    )
    def test_real_non_positive_definite_rejected(self, a):
        with pytest.raises(np.linalg.LinAlgError, match="^matrix is not positive definite$"):
            solve_hpd(a, np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_real_non_finite_lhs_rejected(self, bad):
        a = np.eye(3)
        a[1, 1] = bad
        with pytest.raises(ValueError, match="lhs contains non-finite entries"):
            solve_hpd(a, np.eye(3))

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 24),
        cols=st.integers(1, 6),
        shift=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_real_result_matches_complex_result(self, n, cols, shift, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, n))
        a = x @ x.T + shift * np.eye(n)
        b = rng.standard_normal((n, cols))
        real = solve_hpd(a, b)
        complex_ = solve_hpd(a.astype(np.complex128), b.astype(np.complex128))
        assert real.dtype == np.float64
        assert np.linalg.norm(real - complex_) <= HPD_RESIDUAL_RTOL * np.linalg.norm(complex_)


class TestComplexGaussianSampling:
    def test_zero_covariance_gives_zero_vector(self):
        w, u = eigenpairs(np.zeros((4, 4)))
        (v,) = sample_complex_gaussian(w, u, np.random.default_rng(0), size=1).T
        assert v.shape == (4,)
        assert np.all(v == 0)

    def test_identity_covariance_lln(self):
        n, trials = 8, 100_000
        w, u = eigenpairs(np.eye(n))
        v = sample_complex_gaussian(w, u, np.random.default_rng(42), size=trials)
        empirical = (v @ v.conj().T) / trials
        rel = np.linalg.norm(empirical - np.eye(n)) / np.linalg.norm(np.eye(n))
        assert rel <= 0.05

    def test_exponential_covariance_lln(self):
        n, trials = 8, 100_000
        cov = exp_corr(n, 0.5)
        w, u = eigenpairs(cov)
        v = sample_complex_gaussian(w, u, np.random.default_rng(11), size=trials)
        empirical = (v @ v.conj().T) / trials
        rel = np.linalg.norm(empirical - cov) / np.linalg.norm(cov)
        assert rel <= 0.05

    def test_reproducible_for_fixed_seed(self):
        w, u = eigenpairs(exp_corr(6, 0.7))
        a = sample_complex_gaussian(w, u, np.random.default_rng(5), size=100)
        b = sample_complex_gaussian(w, u, np.random.default_rng(5), size=100)
        assert np.array_equal(a, b)

    def test_circular_symmetry(self):
        n, trials = 8, 100_000
        w, u = eigenpairs(np.eye(n))
        v = sample_complex_gaussian(w, u, np.random.default_rng(9), size=trials)
        mean = v.mean(axis=1)
        assert np.linalg.norm(mean) <= 0.02 * np.sqrt(n)
        pseudo = (v @ v.T) / trials  # E[v v^T], zero for circular symmetry
        assert np.linalg.norm(pseudo) <= 0.05 * np.sqrt(n)

    def test_clamps_roundoff_negative_eigenvalues(self):
        w, u = np.array([1.0, -5e-13]), np.eye(2, dtype=complex)
        v = sample_complex_gaussian(w, u, np.random.default_rng(1), size=10)
        assert np.all(v[1] == 0)

    def test_rejects_negative_eigenvalue_below_floor(self):
        w, u = np.array([1.0, -1e-11]), np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="semidefinite"):
            sample_complex_gaussian(w, u, np.random.default_rng(1), size=1)


class TestComplexNormals:
    @pytest.mark.parametrize("scale", [np.sqrt(0.5), np.sqrt(0.3 * 0.5)])
    @pytest.mark.parametrize("shape", [(6, 500), (1, 1), (7, 4, 3)])
    def test_bytes_of_the_expression(self, shape, scale):
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        got = _complex_normals(rng, shape, scale)
        want = complex_normals(ref, shape, scale)
        assert got.dtype == want.dtype == np.complex128
        assert got.shape == want.shape == shape
        assert got.tobytes() == want.tobytes()
        assert state(rng) == state(ref)

    def test_workspace_keeps_the_bytes_and_holds_the_result(self):
        shape = (7, 4, 3)
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        normals, x = np.full((7, 2, 4, 3), np.nan), np.full(shape, np.nan, np.complex128)
        got = _complex_normals(rng, shape, np.sqrt(0.5), (normals, x))
        assert got is x
        assert got.tobytes() == complex_normals(ref, shape, np.sqrt(0.5)).tobytes()
        assert state(rng) == state(ref)

    @pytest.mark.parametrize("normals,x", [
        ((7, 2, 4, 3), (6, 4, 3)),   # fewer blocks than normals
        ((8, 2, 4, 3), (7, 4, 3)),   # more normals than blocks
        ((7, 4, 2, 3), (7, 4, 3)),   # planes on the wrong axis
    ])
    def test_workspace_of_another_shape_draws_nothing(self, normals, x):
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        with pytest.raises(ValueError, match="workspace"):
            _complex_normals(rng, (7, 4, 3), 1.0,
                             (np.empty(normals), np.empty(x, np.complex128)))
        assert state(rng) == state(ref)

    def test_workspace_of_another_dtype_is_rejected(self):
        with pytest.raises(ValueError, match="complex128"):
            _complex_normals(np.random.default_rng(0), (2, 3), 1.0,
                             (np.empty((2, 2, 3)), np.empty((2, 3))))


class TestRealTimes:
    @pytest.mark.parametrize("shape", [(6, 3), (4, 6, 3)])
    def test_real_matrix_matches_the_complex_product(self, shape):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 6))
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = _real_times(a, x)
        assert got.dtype == np.complex128
        np.testing.assert_allclose(got, a @ x, rtol=1e-13, atol=1e-13)

    def test_complex_matrix_is_the_complex_product(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
        x = rng.standard_normal((4, 6, 3)) + 1j * rng.standard_normal((4, 6, 3))
        assert np.array_equal(_real_times(a, x), a @ x)

    def test_dtype_not_value_picks_the_real_product(self):
        # a complex128 matrix whose imaginary part is 0 is a complex product
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 6)).astype(np.complex128)
        x = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        assert np.array_equal(_real_times(a, x), a @ x)

    def test_real_block_is_a_real_product(self):
        rng = np.random.default_rng(4)
        a, x = rng.standard_normal((5, 6)), rng.standard_normal((6, 3))
        got = _real_times(a, x)
        assert got.dtype == np.float64
        assert np.array_equal(got, a @ x)

    @pytest.mark.parametrize("real", [True, False])
    def test_out_holds_the_bits_of_the_product(self, real):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((8, 8)) if real else random_hermitian(8, rng)
        x = haar_orthonormal_columns(8, 3, rng, count=4)
        out = np.empty((4, 8, 3), np.complex128)
        got = _real_times(a, x, out=out)
        assert np.shares_memory(got, out)
        assert np.array_equal(out, _real_times(a, x))

    def test_stack_has_the_bits_of_each_matrix_alone(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 8))
        x = haar_orthonormal_columns(8, 3, rng, count=9)
        stacked = _real_times(a, x)
        for z, cz in zip(x, stacked):
            assert np.array_equal(cz, _real_times(a, z))


class TestHaarColumns:
    @pytest.mark.parametrize("rows,cols", [(4, 1), (6, 3), (5, 5)])
    def test_orthonormal(self, rows, cols):
        q = haar_orthonormal_columns(rows, cols, np.random.default_rng(rows * 7 + cols))
        require_orthonormal_columns(q)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            haar_orthonormal_columns(3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            haar_orthonormal_columns(3, 0, np.random.default_rng(0))

    def test_left_invariance_moment(self):
        # First column of a Haar frame is uniform on the sphere: its entries
        # should have equal mean squared magnitude in every coordinate.
        rng = np.random.default_rng(23)
        rows, draws = 4, 4000
        acc = np.zeros(rows)
        for _ in range(draws):
            q = haar_orthonormal_columns(rows, 2, rng)
            acc += np.abs(q[:, 0]) ** 2
        acc /= draws
        np.testing.assert_allclose(acc, np.full(rows, 1.0 / rows), atol=0.02)


def state(rng):
    return rng.bit_generator.state


def zero_diagonal_entry_of(bad, real_qr=np.linalg.qr):
    """``np.linalg.qr`` that zeroes ``R[1, 1]`` of every input matrix equal to
    ``bad`` (of every one for None) when it returns ``Q`` too."""
    def qr(x, mode="reduced"):
        if mode == "r":  # verify_lemma's R of CP, no Haar draw
            return real_qr(x, mode=mode)
        q, r = real_qr(x, mode=mode)
        hit = np.all(x == bad, axis=(-2, -1)) if bad is not None else True
        r = np.array(r)
        r[..., 1, 1] = np.where(hit, 0.0, r[..., 1, 1])
        return q, r
    return qr


class TestHaarStacks:
    @pytest.mark.parametrize("rows,cols,count", [(4, 1, 1), (6, 3, 5), (5, 5, 32), (9, 2, 33)])
    def test_stack_is_the_one_by_one_draws(self, rows, cols, count):
        rng, ref = np.random.default_rng(count), np.random.default_rng(count)
        stack = haar_orthonormal_columns(rows, cols, rng, count)
        want = np.stack([haar_one_by_one(rows, cols, ref) for _ in range(count)])
        assert stack.shape == (count, rows, cols)
        assert np.array_equal(stack, want)
        assert state(rng) == state(ref)
        single = haar_orthonormal_columns(rows, cols, rng)
        assert np.array_equal(single, haar_one_by_one(rows, cols, ref))
        assert state(rng) == state(ref)

    @pytest.mark.parametrize("rows,cols,count", [(4, 1, 1), (6, 3, 5), (5, 5, 32), (9, 2, 33)])
    def test_workspace_draws_are_the_one_by_one_draws(self, rows, cols, count):
        rng, ref = np.random.default_rng(count), np.random.default_rng(count)
        # a workspace one matrix larger, used through its leading slices
        normals = np.empty((count + 1, 2, rows, cols))
        blocks = np.empty((count + 1, rows, cols), np.complex128)
        for size in (count, 1):
            stack = haar_orthonormal_columns(
                rows, cols, rng, size, workspace=(normals[:size], blocks[:size])
            )
            want = np.stack([haar_one_by_one(rows, cols, ref) for _ in range(size)])
            assert not np.shares_memory(stack, blocks)
            assert np.array_equal(stack, want)
            assert state(rng) == state(ref)
        single = haar_orthonormal_columns(rows, cols, rng, workspace=(normals[:1], blocks[:1]))
        assert np.array_equal(single, haar_one_by_one(rows, cols, ref))
        assert state(rng) == state(ref)

    @pytest.mark.parametrize("count", [None, 4])
    def test_rank_deficient_draw_raises_at_once(self, monkeypatch, count):
        monkeypatch.setattr(np.linalg, "qr", zero_diagonal_entry_of(None))
        rng, ref = np.random.default_rng(0), np.random.default_rng(0)
        with pytest.raises(np.linalg.LinAlgError) as got:
            haar_orthonormal_columns(6, 3, rng, count)
        assert str(got.value) == "random matrix is rank deficient"
        # the stack's normals were drawn once, and nothing more
        ref.standard_normal((1 if count is None else count, 2, 6, 3))
        assert state(rng) == state(ref)
        with pytest.raises(np.linalg.LinAlgError) as want:
            haar_one_by_one(6, 3, np.random.default_rng(0))
        assert str(want.value) == str(got.value)

    def test_lemma_raises_like_the_loop_on_a_rank_deficient_draw(self, monkeypatch):
        from fddjam.channel import exponential_covariance
        from fddjam.jammer import verify_lemma
        from fddjam.training import TrainingConfig, optimal_pilots
        from oracles import verify_lemma_one_by_one

        # candidate 37, in the second stack, is drawn rank deficient
        normals = np.random.default_rng(2).standard_normal((40, 2, 6, 3))
        bad = np.sqrt(0.5) * (normals[37, 0] + 1j * normals[37, 1])
        monkeypatch.setattr(np.linalg, "qr", zero_diagonal_entry_of(bad))
        cfg = TrainingConfig(8, 6, 3, 5.0, 5.0, bs_correlation=0.7)
        bs_cov, jam_cov = exponential_covariance(8, 0.7), exponential_covariance(6, 0.7)
        pilots = optimal_pilots(bs_cov, 3)
        with pytest.raises(np.linalg.LinAlgError) as got:
            verify_lemma(bs_cov, jam_cov, pilots, cfg, 70, np.random.default_rng(2))
        with pytest.raises(np.linalg.LinAlgError) as want:
            verify_lemma_one_by_one(bs_cov, jam_cov, pilots, cfg, 70, np.random.default_rng(2))
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value) == "random matrix is rank deficient"


class TestStackedSolve:
    def stack(self, n=5, size=4):
        rng = np.random.default_rng(n)
        return np.stack([random_hermitian(size, rng, definite=True) for _ in range(n)])

    @pytest.mark.parametrize("rhs_shape", [(4,), (4, 3)])
    def test_each_entry_is_its_solve_alone(self, rhs_shape):
        a = self.stack()
        b = np.random.default_rng(1).standard_normal(rhs_shape) + 0j
        x = solve_hpd(a, b)
        assert x.shape == (len(a), *rhs_shape)
        for ai, xi in zip(a, x):
            assert np.array_equal(xi, solve_hpd(ai, b))

    def test_one_indefinite_matrix_fails_the_stack(self):
        a = self.stack()
        a[3] = -a[3]
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            solve_hpd(a, np.ones(4))


def blas_threads():
    return _bundled_openblas()[0]()


@pytest.fixture
def blas():
    # The OpenBLAS bundled with numpy must be found: a discovery that
    # silently finds none would let oversubscription back. scipy's copy is
    # neither loaded nor called by fddjam, so it is not pinned.
    if not list((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        pytest.skip("numpy bundles no OpenBLAS")
    found = _bundled_openblas()
    assert found is not None
    return found


class TestSingleBlasThread:
    def test_every_copy_runs_one_thread_inside(self, blas):
        with _single_blas_thread():
            assert blas_threads() == 1
            with _single_blas_thread():
                pass
            assert blas_threads() == 1

    def test_pool_worker_started_inside_inherits_one_thread(self, blas):
        with _single_blas_thread(), ProcessPoolExecutor(max_workers=1) as pool:
            threads = pool.submit(blas_threads).result(timeout=60)
        assert threads == 1

    def test_restores_caller_counts_also_on_error(self, blas):
        get, set_ = blas
        saved = get()
        try:
            set_(2)
            with pytest.raises(RuntimeError), _single_blas_thread():
                raise RuntimeError("inside")
            assert get() == 2
        finally:
            set_(saved)

    def test_no_bundled_copy_is_a_no_op(self, monkeypatch, tmp_path):
        # a numpy without numpy.libs, as a non-wheel build installs it
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        _bundled_openblas.cache_clear()
        try:
            assert _bundled_openblas() is None
            with _single_blas_thread():
                x = solve_hpd(np.eye(2), np.ones(2))
            np.testing.assert_allclose(x, np.ones(2))
        finally:
            _bundled_openblas.cache_clear()
