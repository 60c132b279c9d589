import numpy as np
import pytest

from framecond import conic, frames, recovery
from framecond.precondition import solve_coherence

SET8 = conic.SolverSettings(gap_tol=1e-8, feas_tol=1e-8)

# a decoder path that makes NaNs or divides by zero fails instead of warning
pytestmark = [
    pytest.mark.filterwarnings("error:invalid value encountered:RuntimeWarning"),
    pytest.mark.filterwarnings("error:divide by zero encountered:RuntimeWarning"),
]


def plant(frame, support, values):
    x = np.zeros(frame.n_vectors)
    x[list(support)] = values
    return x, frame.matrix @ x


class TestOMP:
    def test_single_atom(self):
        fr = frames.random_gaussian_frame(8, 16, 0)
        res = recovery.omp(fr, 2.0 * fr.matrix[:, 5], 4)
        assert res.support == (5,)
        assert res.estimate[5] == pytest.approx(2.0, abs=1e-10)
        assert res.iterations == 1
        assert res.residual_norm <= 1e-10
        assert res.status is None

    def test_orthonormal_two_atoms_exact(self):
        fr = frames.Frame(np.eye(6))
        x, y = plant(fr, (1, 3), (1.0, 0.5))
        res = recovery.omp(fr, y, 2)
        assert res.support == (1, 3)
        assert np.abs(res.estimate - x).max() <= 1e-12

    def test_exact_recovery_below_coherence_bound(self):
        fr = frames.dirac_hadamard_frame(64)
        bound = frames.recovery_bound(frames.coherence(fr))
        assert bound > 4.0
        rng = np.random.default_rng(1)
        for _ in range(20):
            supp = rng.choice(fr.n_vectors, 4, replace=False)
            x, y = plant(fr, supp, rng.standard_normal(4) * (1.0 + rng.random(4)))
            res = recovery.omp(fr, y, 4)
            assert set(res.support) == set(int(i) for i in supp)
            assert np.linalg.norm(res.estimate - x) / np.linalg.norm(x) <= 1e-8

    def test_residual_non_increasing_and_support_grows(self):
        fr = frames.random_gaussian_frame(10, 25, 2)
        rng = np.random.default_rng(3)
        y = fr.matrix @ rng.standard_normal(25)
        previous = np.linalg.norm(y)
        supports = []
        for k in range(1, 7):
            res = recovery.omp(fr, y, k)
            assert res.residual_norm <= previous + 1e-12
            previous = res.residual_norm
            supports.append(set(res.support))
        for small, big in zip(supports, supports[1:]):
            assert small < big   # strictly growing, no reselection

    def test_non_unit_columns_handled(self):
        fr = frames.random_gaussian_frame(6, 12, 4)
        scaled = fr.matrix * np.linspace(0.5, 3.0, 12)
        x = np.zeros(12)
        x[7] = 1.25
        res = recovery.omp(scaled, scaled @ x, 1)
        assert res.support == (7,)
        assert res.estimate[7] == pytest.approx(1.25, abs=1e-10)


    def test_zero_column_never_selected(self):
        fr = frames.random_gaussian_frame(6, 10, 9)
        a = fr.matrix.copy()
        a[:, 4] = 0.0
        x = np.zeros(10)
        x[[1, 7]] = [1.0, -0.5]
        res = recovery.omp(a, a @ x, 6)
        assert res.support == (1, 7)
        assert np.abs(res.estimate - x).max() <= 1e-10
        # with y = 0 every correlation, the zero column's included, is 0, not NaN
        assert recovery.omp(a, np.zeros(6), 3).iterations == 0
        assert recovery.basis_pursuit(a, a @ x).status == conic.SolverStatus.OPTIMAL

    def test_near_duplicate_column_retires_the_member(self):
        # column 0 lies within 1e-13 of column 1's span: after column 1 the
        # residual still correlates with column 0 above the stopping level,
        # but refitting on both would divide by that 1e-13
        delta = 1e-13
        a = np.array([[1.0, 1.0, 0.0], [0.0, delta, 0.0], [0.0, 0.0, 1.0]])
        a[:, 1] /= np.linalg.norm(a[:, 1])
        ys = np.array([[1.0, 1e3, 0.0], [1.0, 0.0, 2.0]])
        dup, other = recovery.omp(a, ys, 3)
        assert dup.iterations == 1 and dup.support == (1,)
        assert np.isfinite(dup.estimate).all() and np.abs(dup.estimate).max() <= 2.0
        assert dup.residual_norm == pytest.approx(1e3, rel=1e-9)
        assert other.iterations == 2 and other.support == (0, 2)


def _omp_reference(a, y, k_max):
    """OMP as a per-signal loop that refits the whole support by least
    squares at every step; returns (estimate, iterations)."""
    m, big_m = a.shape
    norms = np.linalg.norm(a, axis=0)
    a_sel = a / np.where(norms > 0, norms, np.inf)
    residual, support, coef = y.copy(), [], np.zeros(0)
    for _ in range(min(k_max, m)):
        corr = np.abs(a_sel.T @ residual)
        corr[support] = -1.0
        best = int(np.argmax(corr))
        if corr[best] <= 1e-14 * (1.0 + np.linalg.norm(residual)):
            break
        support.append(best)
        coef = np.linalg.lstsq(a[:, support], y, rcond=None)[0]
        residual = y - a[:, support] @ coef
        if np.linalg.norm(residual) <= recovery.OMP_RES_TOL:
            break
    x = np.zeros(big_m)
    x[support] = coef
    return x, len(support)


class TestBatchedOMP:
    def test_batch_matches_single_calls_and_the_loop(self):
        fr = frames.random_gaussian_frame(8, 20, 31)
        rng = np.random.default_rng(32)
        xs, ks = [], []
        for s in range(1, 9):            # members retire at steps 1..8
            x = np.zeros(20)
            x[rng.choice(20, s, replace=False)] = rng.standard_normal(s)
            xs.append(x)
            ks.append(s)
        xs += [rng.standard_normal(20), rng.standard_normal(20), np.zeros(20), xs[1], xs[1]]
        ks += [3, 12, 4, 0, 6]           # cap binds; k_max > m; zero y; k_max = 0; residual first
        ys = np.array(xs) @ fr.matrix.T
        batch = recovery.omp(fr, ys, np.array(ks))
        assert isinstance(batch, list) and len(batch) == len(ys)
        assert [rec.iterations for rec in batch] == [1, 2, 3, 4, 5, 6, 7, 8, 3, 8, 0, 0, 2]
        for y, k, got in zip(ys, ks, batch):
            single = recovery.omp(fr, y, k)
            assert isinstance(single, recovery.RecoveryResult)
            assert got.support == single.support and got.iterations == single.iterations
            assert np.abs(got.estimate - single.estimate).max() <= 1e-10
            ref, iterations = _omp_reference(fr.matrix, y, k)
            assert got.iterations == iterations
            assert got.support == tuple(np.flatnonzero(np.abs(ref) > recovery.SUPPORT_TOL))
            assert np.abs(got.estimate - ref).max() <= 1e-10
        # one k_max for the whole batch
        for y, got in zip(ys, recovery.omp(fr, ys, 5)):
            assert got.support == recovery.omp(fr, y, 5).support


DECODERS = [lambda a, y: recovery.omp(a, y, 2), recovery.basis_pursuit]


class TestDecoderInput:
    @pytest.mark.parametrize("decode", DECODERS, ids=["omp", "bp"])
    @pytest.mark.parametrize("y", [np.ones(5), np.ones((2, 5)), np.ones((1, 2, 4)), np.ones(0)],
                             ids=["long", "long-rows", "3-D", "empty"])
    def test_wrong_shape(self, decode, y):
        with pytest.raises(ValueError, match=r"y must have shape \(4,\) or \(B, 4\).*got shape"):
            decode(np.eye(4), y)

    @pytest.mark.parametrize("decode", DECODERS, ids=["omp", "bp"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite(self, decode, bad):
        y = np.ones((3, 4))
        y[1, 2] = bad
        with pytest.raises(ValueError, match=r"y of shape \(3, 4\) contains NaN or Inf"):
            decode(np.eye(4), y)

    def test_k_max(self):
        with pytest.raises(ValueError, match=r"k_max must be >= 0"):
            recovery.omp(np.eye(4), np.ones(4), -1)
        with pytest.raises(ValueError, match=r"k_max must be >= 0"):
            recovery.omp(np.eye(4), np.ones((2, 4)), [1, -2])
        with pytest.raises(ValueError, match=r"one per row of y \(shape \(2, 4\)\)"):
            recovery.omp(np.eye(4), np.ones((2, 4)), [1, 2, 3])
        with pytest.raises(ValueError, match=r"one per row of y \(shape \(4,\)\)"):
            recovery.omp(np.eye(4), np.ones(4), [1])


class TestBasisPursuit:
    def test_single_atom(self):
        fr = frames.dirac_hadamard_frame(16)
        res = recovery.basis_pursuit(fr.matrix, fr.matrix[:, 3])
        x = np.zeros(32)
        x[3] = 1.0
        assert np.abs(res.estimate - x).max() <= 1e-6
        assert res.support == (3,)

    def test_data_fit(self):
        fr = frames.random_gaussian_frame(7, 15, 5)
        rng = np.random.default_rng(6)
        y = fr.matrix @ rng.standard_normal(15)
        res = recovery.basis_pursuit(fr.matrix, y)
        assert res.residual_norm <= 1e-6 * np.linalg.norm(y)

    def test_infeasible_rejected(self):
        a = np.eye(3)[:2]   # range is the first two coordinates
        with pytest.raises(recovery.Infeasible):
            recovery.basis_pursuit(a.T, np.array([1.0, 1.0, 1.0]))

    def test_preconditioning_invariance(self):
        fr = frames.random_gaussian_frame(10, 24, 7)
        res = solve_coherence(fr, SET8)
        rng = np.random.default_rng(8)
        for _ in range(5):
            supp = rng.choice(24, 2, replace=False)
            x, y = plant(fr, supp, rng.standard_normal(2))
            plain = recovery.basis_pursuit(fr.matrix, y)
            mapped = recovery.basis_pursuit(res.G @ fr.matrix, res.G @ y)
            assert np.abs(plain.estimate - mapped.estimate).max() <= 1e-5

    def test_recovery_under_improved_bound(self):
        # 8 x 9 frame: the plain coherence bound covers only k = 1, but the
        # minimized coherence pushes the guarantee past k = 2, and plain
        # basis pursuit indeed recovers every 2-sparse signal
        fr = frames.random_gaussian_frame(8, 9, 0)
        mu = frames.coherence(fr)
        assert frames.recovery_bound(mu) < 2.0
        res = solve_coherence(fr, SET8)
        assert frames.recovery_bound(res.verified_coherence) > 2.0
        rng = np.random.default_rng(99)
        for _ in range(40):
            supp = rng.choice(9, 2, replace=False)
            x, y = plant(fr, supp, rng.standard_normal(2) * (1.0 + rng.random(2)))
            rec = recovery.basis_pursuit(fr.matrix, y)
            assert np.linalg.norm(rec.estimate - x) / np.linalg.norm(x) <= 1e-4


def _signals(n_vectors, m, trials, seed):
    """``trials`` random signals for every sparsity s <= m, one per row."""
    rng = np.random.default_rng(seed)
    xs = np.zeros((m * trials, n_vectors))
    for i in range(m * trials):
        s = i // trials + 1
        xs[i, rng.choice(n_vectors, s, replace=False)] = rng.standard_normal(s)
    return xs


class TestBatchedBasisPursuit:
    def test_batch_matches_single_decodes(self):
        fr = frames.random_gaussian_frame(8, 16, 21)
        xs = _signals(16, 8, 3, 22)
        ys = xs @ fr.matrix.T
        batch = recovery.basis_pursuit(fr.matrix, ys)
        assert len(batch) == len(ys)
        for y, got in zip(ys, batch):
            single = recovery.basis_pursuit(fr.matrix, y)
            assert got.status == single.status == conic.SolverStatus.OPTIMAL
            assert np.abs(got.estimate - single.estimate).max() <= 1e-8
            assert got.support == single.support

    def test_infeasible_member_flagged_others_intact(self):
        a = np.array([[1.0, 0.0, 1.0, 2.0], [0.0, 1.0, 1.0, -1.0], [1.0, 1.0, 2.0, 1.0]])
        x = np.array([0.0, 0.0, 1.5, 0.0])
        ys = np.array([a @ x, [1.0, 1.0, 0.0], 2.0 * a[:, 3]])   # row 1 leaves the span
        batch = recovery.basis_pursuit(a, ys)
        assert batch[1].status == "Infeasible"
        assert np.isnan(batch[1].estimate).all()
        for i in (0, 2):
            single = recovery.basis_pursuit(a, ys[i])
            assert batch[i].status == single.status == conic.SolverStatus.OPTIMAL
            assert np.abs(batch[i].estimate - single.estimate).max() <= 1e-8
        assert np.abs(batch[0].estimate - x).max() <= 1e-6
        with pytest.raises(recovery.Infeasible):
            recovery.basis_pursuit(a, ys[1])

    def test_rank_deficient_rows_go_to_the_conic_solver(self, monkeypatch):
        fr = frames.random_gaussian_frame(5, 12, 23)
        a = np.vstack([fr.matrix, fr.matrix[0] + fr.matrix[1]])   # 6 rows, rank 5
        xs = _signals(12, 2, 3, 24)
        ys = xs @ a.T
        calls = []
        solve = conic.solve

        def counting(problem, settings):
            calls.append(problem.n_rows)
            return solve(problem, settings)

        monkeypatch.setattr(conic, "solve", counting)
        batch = recovery.basis_pursuit(a, ys)
        assert calls == [len(a) + 1] * len(ys)
        for x, rec in zip(xs, batch):
            assert rec.status == conic.SolverStatus.OPTIMAL
            assert np.linalg.norm(rec.estimate - x) <= 1e-6 * np.linalg.norm(x)

    def test_singular_member_leaves_the_batch_alone(self, monkeypatch):
        # make the first stacked factorization fail on its first member, as a
        # singular normal matrix would: that member alone goes to the conic
        # solver and the rest of the batch finishes in the kernel
        fr = frames.random_gaussian_frame(6, 12, 27)
        xs = _signals(12, 3, 2, 28)
        ys = xs @ fr.matrix.T
        expected = recovery.basis_pursuit(fr.matrix, ys)
        cholesky = np.linalg.cholesky
        injected = {}

        def flaky(mat):
            if mat.ndim == 3 and not injected:
                injected["victim"] = mat[0].copy()
                raise np.linalg.LinAlgError("injected")
            if mat.ndim == 2 and np.array_equal(mat, injected.get("victim")):
                raise np.linalg.LinAlgError("injected")
            return cholesky(mat)

        calls = []
        solve = conic.solve

        def counting(problem, settings):
            calls.append(problem.n_rows)
            return solve(problem, settings)

        monkeypatch.setattr(np.linalg, "cholesky", flaky)
        monkeypatch.setattr(conic, "solve", counting)
        batch = recovery.basis_pursuit(fr.matrix, ys)
        assert injected and len(calls) == 1
        for want, got in zip(expected, batch):
            assert got.status == want.status == conic.SolverStatus.OPTIMAL
            assert np.abs(got.estimate - want.estimate).max() <= 1e-6

    def test_failed_fallback_member_is_flagged_others_intact(self, monkeypatch):
        # the first member's normal matrix is made to fail, as in the test
        # above, and its conic re-solve then fails too: in a batch it gets a
        # NaN estimate and status NumericalFailure, and alone it raises
        fr = frames.random_gaussian_frame(6, 12, 27)
        xs = _signals(12, 3, 2, 28)
        ys = xs @ fr.matrix.T
        expected = recovery.basis_pursuit(fr.matrix, ys)
        cholesky = np.linalg.cholesky
        injected = {}

        def flaky(mat):
            if mat.ndim == 3 and "victim" not in injected:
                injected["victim"] = mat[0].copy()
            if np.array_equal(mat if mat.ndim == 2 else mat[0], injected.get("victim")):
                raise np.linalg.LinAlgError("injected")
            return cholesky(mat)

        def no_newton(*args):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(np.linalg, "cholesky", flaky)
        monkeypatch.setattr(conic, "_Newton", no_newton)
        batch = recovery.basis_pursuit(fr.matrix, ys)
        assert batch[0].status == conic.SolverStatus.NUMERICAL_FAILURE
        assert np.isnan(batch[0].estimate).all()
        for want, got in zip(expected[1:], batch[1:]):
            assert got.status == want.status == conic.SolverStatus.OPTIMAL
            assert np.abs(got.estimate - want.estimate).max() <= 1e-6
        injected.clear()
        with pytest.raises(RuntimeError, match="failed numerically"):
            recovery.basis_pursuit(fr.matrix, ys[0])

    def test_unconverged_members_are_resolved_alone(self, monkeypatch):
        fr = frames.random_gaussian_frame(6, 12, 25)
        xs = _signals(12, 3, 2, 26)
        ys = xs @ fr.matrix.T
        settings = conic.SolverSettings(gap_tol=1e-9, feas_tol=1e-9, max_iter=2)
        calls = []
        solve = conic.solve

        def counting(problem, settings):
            sol = solve(problem, settings)
            calls.append(sol.status)
            return sol

        monkeypatch.setattr(conic, "solve", counting)
        batch = recovery.basis_pursuit(fr.matrix, ys, settings)
        # two steps converge nothing: every member is re-solved, with the
        # same settings, and keeps the conic solver's status
        assert [rec.status for rec in batch] == calls == [conic.SolverStatus.MAX_ITER] * len(ys)
        assert all(rec.iterations == 2 for rec in batch)

    def test_matches_highs(self):
        # HiGHS is the independent oracle; scipy.optimize is imported here
        # only, so the library's import time does not pay for it
        from scipy.optimize import linprog

        checked = 0
        for m in (4, 8, 12):
            fr = frames.random_gaussian_frame(m, 16, 30 + m)
            g = solve_coherence(fr, SET8).G
            xs = _signals(16, m, 5, 40 + m)
            for sensing in (fr.matrix, g @ fr.matrix):
                ys = xs @ sensing.T
                for y, rec in zip(ys, recovery.basis_pursuit(sensing, ys)):
                    if rec.status != conic.SolverStatus.OPTIMAL:
                        continue
                    ref = linprog(np.ones(32), A_eq=np.hstack([sensing, -sensing]), b_eq=y,
                                  bounds=(0, None), method="highs")
                    assert ref.status == 0
                    l1 = np.abs(rec.estimate).sum()
                    assert abs(l1 - ref.fun) <= 1e-6 * ref.fun, (m, l1, ref.fun)
                    assert rec.residual_norm <= 1e-6 * np.linalg.norm(y)
                    checked += 1
        assert checked >= 0.95 * 2 * 5 * (4 + 8 + 12)


class TestLowerInverse:
    @pytest.mark.parametrize("cond", [1e1, 1e6, 1e12])
    def test_small_residual_and_matches_lapack(self, cond):
        # a stack of Cholesky factors of normal matrices, as the basis-pursuit
        # kernel inverts them; each row of the inverse is a forward
        # substitution, so L X - I is small relative to |L| |X|, and X agrees
        # with LAPACK's inverse to within cond(L) eps
        rng = np.random.default_rng(5)
        m = 15
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        spectra = np.geomspace(1.0, 1.0 / cond, m) * rng.uniform(0.5, 2.0, (40, 1))
        lower = np.linalg.cholesky((q * spectra[:, None, :]) @ q.T)
        inv = recovery._lower_inverse(lower)
        assert (np.triu(inv, 1) == 0.0).all()
        eps = np.finfo(float).eps
        bound = np.abs(lower) @ np.abs(inv)
        assert (np.abs(lower @ inv - np.eye(m)) <= 10 * m * eps * bound).all()
        ref = np.linalg.inv(lower)
        err = np.abs(inv - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
        assert (err <= 10 * m * eps * np.sqrt(cond)).all()

    def test_exactly_lower_triangular(self):
        # the substitution never writes above the diagonal, whatever the
        # input holds there
        rng = np.random.default_rng(6)
        full = rng.standard_normal((7, 9, 9)) + 4.0 * np.eye(9)
        inv = recovery._lower_inverse(full)
        assert (np.triu(inv, 1) == 0.0).all()
        assert np.array_equal(inv, recovery._lower_inverse(np.tril(full)))

    def test_order_one_stack(self):
        lower = np.array([2.0, 0.5, 8.0]).reshape(3, 1, 1)
        assert np.array_equal(recovery._lower_inverse(lower), 1.0 / lower)

    def test_one_member_stack(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((6, 11))
        lower = np.linalg.cholesky(g @ g.T)[None]
        inv = recovery._lower_inverse(lower)
        assert inv.shape == (1, 6, 6)
        np.testing.assert_allclose(inv[0], np.linalg.inv(lower[0]), rtol=1e-12, atol=1e-14)


class TestAgreement:
    def test_omp_and_bp_agree_below_bound(self):
        fr = frames.dirac_hadamard_frame(32)
        k = int(np.ceil(frames.recovery_bound(frames.coherence(fr)) - 1.0))
        rng = np.random.default_rng(11)
        for _ in range(25):
            supp = rng.choice(fr.n_vectors, k, replace=False)
            x, y = plant(fr, supp, rng.standard_normal(k) * (1.0 + rng.random(k)))
            via_omp = recovery.omp(fr, y, k)
            via_bp = recovery.basis_pursuit(fr.matrix, y)
            assert set(via_omp.support) == set(int(i) for i in supp)
            assert set(via_bp.support) == set(int(i) for i in supp)

    def test_omp_support_not_preconditioning_invariant(self):
        # frozen instance where greedy selection differs between the plain
        # and the preconditioned system (found by randomized search)
        fr = frames.random_gaussian_frame(8, 16, 0)
        res = solve_coherence(fr, SET8)
        x = np.zeros(16)
        x[[13, 10]] = [1.5185931527091534, -0.0862534510099064]
        y = fr.matrix @ x
        plain = recovery.omp(fr, y, 2)
        mapped = recovery.omp(frames.Frame(res.G @ fr.matrix), res.G @ y, 2)
        assert plain.support == (10, 13)
        assert mapped.support == (8, 13)
        assert plain.support != mapped.support


class TestNoiseBounds:
    def test_identity(self):
        assert recovery.noise_amplification_bounds(np.eye(3)) == (1.0, 1.0, 1.0)

    def test_diagonal(self):
        lo, hi, kappa = recovery.noise_amplification_bounds(np.diag([2.0, 1.0]))
        assert (lo, hi, kappa) == (1.0, 2.0, 2.0)

    def test_sandwich_inequality_sampled(self):
        rng = np.random.default_rng(12)
        g = rng.standard_normal((6, 6))
        lo, hi, _ = recovery.noise_amplification_bounds(g)
        residuals = rng.standard_normal((6, 1000))
        plain = np.linalg.norm(residuals, axis=0)
        mapped = np.linalg.norm(g @ residuals, axis=0)
        assert (mapped >= lo * plain - 1e-12).all()
        assert (mapped <= hi * plain + 1e-12).all()
        # both sides are tight along the extreme singular directions
        _, _, vt = np.linalg.svd(g)
        assert np.linalg.norm(g @ vt[-1]) == pytest.approx(lo, abs=1e-12)
        assert np.linalg.norm(g @ vt[0]) == pytest.approx(hi, abs=1e-12)
