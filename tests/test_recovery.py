import numpy as np
import pytest

from framecond import conic, frames, recovery
from framecond.precondition import solve_coherence

SET8 = conic.SolverSettings(gap_tol=1e-8, feas_tol=1e-8)


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
