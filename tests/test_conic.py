import numpy as np
import pytest

from framecond import conic, experiments, frames
from framecond.precondition import build_c1, build_c2

TIGHT = conic.SolverSettings(gap_tol=1e-8, feas_tol=1e-8)


def seeded_frame(m, n_vectors=64):
    seed = int(experiments.trial_rng(0, experiments.FRAME_STREAM, m, 0, 0).integers(2**63))
    return frames.random_gaussian_frame(m, n_vectors, seed)


def schur_rows_at(prob, iters):
    """The Schur operator at the iterate a solve capped at ``iters`` returns."""
    sol = conic.solve(prob, conic.SolverSettings(max_iter=iters))
    lay = conic._Layout(prob)
    xs, ss = [sol.X], [sol.dual_psd]
    if prob.eig_bounds is not None:
        info = sol.bound_info
        xs += [info["upper_slack"], info["lower_slack"]]
        ss += [info["upper_dual"], info["lower_dual"]]
    chols = [np.linalg.cholesky(x) for x in xs]
    t_mats = [np.linalg.inv(np.linalg.cholesky(s)).T for s in ss]
    x_lin = np.concatenate([[sol.q], sol.slacks, sol.extras])
    s_lin = np.concatenate([[sol.q_dual], sol.slack_duals, sol.extra_duals])
    return conic._SchurRows(lay, chols, t_mats, np.sqrt((x_lin / s_lin)[lay.shared_idx]))


def coherence_of(mat):
    mat = mat / np.linalg.norm(mat, axis=0)
    gram = mat.T @ mat
    return np.abs(np.triu(gram, 1)).max()


def one_variable_lp():
    # min q subject to sigma = 1 and sigma - q + p = 0 with p >= 0
    return conic.ConicProblem(
        psd_dim=1,
        diagonal=True,
        rhs=np.array([1.0, 0.0]),
        row_u=np.ones((2, 1)),
        row_v=np.ones((2, 1)),
        row_alpha=np.ones(2),
        row_q=np.array([0.0, -1.0]),
        slack_rows=np.array([1]),
    )


class TestLinearProgram:
    def test_one_variable(self):
        sol = conic.solve(one_variable_lp(), TIGHT)
        assert sol.status == conic.SolverStatus.OPTIMAL
        assert sol.q == pytest.approx(1.0, abs=1e-7)
        assert sol.X[0, 0] == pytest.approx(1.0, abs=1e-7)

    def test_strong_duality(self):
        sol = conic.solve(one_variable_lp(), TIGHT)
        assert abs(sol.pobj - sol.dobj) <= 1e-7


class TestCoherenceProgram:
    def test_mercedes_benz_optimum(self, mercedes_benz):
        sol = conic.solve(build_c1(mercedes_benz), TIGHT)
        assert sol.status == conic.SolverStatus.OPTIMAL
        assert sol.q == pytest.approx(0.5, abs=1e-5)

    def test_mercedes_benz_brute_force_witness(self, mercedes_benz):
        # the three unit-diagonal constraints pin X uniquely; solving the
        # 3x3 linear system in (x11, x12, x22) must reproduce the identity,
        # so no preconditioner can beat coherence 1/2
        phi = mercedes_benz.matrix
        rows = np.array(
            [[phi[0, i] ** 2, 2 * phi[0, i] * phi[1, i], phi[1, i] ** 2] for i in range(3)]
        )
        x = np.linalg.solve(rows, np.ones(3))
        assert np.allclose(x, [1.0, 0.0, 1.0], atol=1e-12)

    def test_never_above_initial_coherence(self):
        for seed in range(4):
            fr = frames.random_gaussian_frame(4, 9, seed)
            sol = conic.solve(build_c1(fr), TIGHT)
            assert sol.q <= coherence_of(fr.matrix) + 1e-8

    def test_matches_cvxpy_reference(self):
        cp = pytest.importorskip("cvxpy")
        fr = frames.random_gaussian_frame(4, 9, 11)
        phi = fr.matrix
        sol = conic.solve(build_c1(fr), TIGHT)
        x = cp.Variable((4, 4), PSD=True)
        q = cp.Variable(nonneg=True)
        gram = phi.T @ x @ phi
        iu = np.triu_indices(9, 1)
        cp.Problem(
            cp.Minimize(q), [cp.diag(gram) == 1, gram[iu] <= q, gram[iu] >= -q]
        ).solve(solver=cp.CLARABEL)
        assert sol.q == pytest.approx(q.value, abs=2e-6)

    def test_dual_objective_identity(self):
        # the negated unit-norm row multipliers sum to the optimal value
        fr = frames.random_gaussian_frame(5, 11, 2)
        prob = build_c1(fr)
        sol = conic.solve(prob, TIGHT)
        z_ii = -sol.y[: fr.n_vectors]
        assert sol.q == pytest.approx(-np.sum(z_ii), abs=1e-6)

    def test_gap_history_monotone(self):
        fr = frames.random_gaussian_frame(4, 10, 3)
        sol = conic.solve(build_c1(fr), TIGHT)
        hist = np.array(sol.gap_history)
        assert (np.diff(hist) <= 1e-12 * (1.0 + hist[:-1]) + 1e-13).all()

    def test_solution_psd_and_feasible(self):
        fr = frames.random_gaussian_frame(5, 12, 4)
        sol = conic.solve(build_c1(fr), TIGHT)
        eig = np.linalg.eigvalsh(sol.X)
        assert eig[0] >= -1e-9
        gram = fr.matrix.T @ sol.X @ fr.matrix
        assert np.abs(np.diag(gram) - 1.0).max() <= 1e-6
        assert np.abs(sol.X - sol.X.T).max() <= 1e-12

    def test_duplicate_column_rows_dropped(self):
        base = frames.random_gaussian_frame(3, 6, 5).matrix
        mat = np.hstack([base, base[:, :1]])   # exact duplicate column
        sol = conic.solve(build_c1(frames.Frame(mat)), TIGHT)
        assert len(sol.dropped_rows) == 1
        assert sol.status == conic.SolverStatus.OPTIMAL
        assert sol.q == pytest.approx(1.0, abs=1e-6)
        assert len(sol.y) == build_c1(frames.Frame(mat)).n_rows


class TestKKTModes:
    def test_dense_woodbury_agree(self):
        fr = frames.random_gaussian_frame(6, 20, 5)
        prob = build_c1(fr)
        dense = conic.solve(prob, conic.SolverSettings(kkt_mode="dense"))
        wood = conic.solve(prob, conic.SolverSettings(kkt_mode="woodbury"))
        assert dense.q == pytest.approx(wood.q, abs=1e-7)
        assert np.abs(dense.X - wood.X).max() <= 1e-5

    def test_factor_solves_linear_system(self):
        # 10 unit-norm rows, independent in the 15-dimensional space of X
        prob = build_c1(frames.random_gaussian_frame(5, 10, 0))
        op = schur_rows_at(prob, 3)
        k = prob.n_rows
        rng = np.random.default_rng(0)
        n = np.zeros(k)
        n[10:] = rng.uniform(1e-8, 5.0, size=k - 10)   # unit-norm rows stay free
        u = op.rows(np.arange(k))
        h = u @ u.T + np.diag(n)
        r = rng.standard_normal(k)
        expect = np.linalg.solve(h, r)
        for mode in ("dense", "woodbury"):
            kkt = conic._KKTFactor(n, op, mode)
            got = kkt.solve(r)
            assert np.abs(got - expect).max() <= 1e-8 * np.abs(expect).max()
            assert (kkt.fallbacks, kkt.ridges) == (0, 0)
            r_bad = r.copy()
            r_bad[0] = np.nan
            with pytest.raises(ValueError, match="NaN or Inf"):
                kkt.solve(r_bad)

    def test_singular_system_counts_ridge(self):
        # without slack weights H = U U^T has rank at most width < k
        op = schur_rows_at(build_c1(frames.random_gaussian_frame(5, 10, 0)), 3)
        kkt = conic._KKTFactor(np.zeros(op.lay.k_total), op, "dense")
        assert kkt.ridges == 1


def explicit_schur_rows(prob, op):
    """U built row by row from the problem data with _scaled_rows, sharing
    no atom bookkeeping with the structured operators."""
    m = prob.psd_dim
    u, v, alpha = prob.row_u, prob.row_v, prob.row_alpha
    blocks = [(u, v, alpha)]
    if prob.eig_bounds is not None:
        tri_r, tri_c = np.triu_indices(m)
        eye = np.eye(m)
        cu, cv = eye[tri_r], eye[tri_c]
        zero_u, zero_a = np.zeros_like(u), np.zeros_like(alpha)
        zero_c, one_c = np.zeros(len(tri_r)), np.ones(len(tri_r))
        blocks = [
            (np.vstack([u, cu, cu]), np.vstack([v, cv, cv]), np.r_[alpha, one_c, one_c]),
            (np.vstack([zero_u, cu, cu]), np.vstack([zero_u, cv, cv]), np.r_[zero_a, one_c, zero_c]),
            (np.vstack([zero_u, cu, cu]), np.vstack([zero_u, cv, cv]), np.r_[zero_a, zero_c, -one_c]),
        ]
    cols = [
        conic._scaled_rows(bu, bv, ba, left, right)
        for (bu, bv, ba), left, right in zip(blocks, op.chols, op.t_mats)
    ]
    return np.hstack(cols + [op.lay.shared * op.scale])


class TestStructuredSchur:
    @pytest.mark.parametrize(
        "prob",
        [
            pytest.param(lambda: build_c1(seeded_frame(24)), id="c1-24x64"),
            pytest.param(lambda: build_c2(seeded_frame(12), 2.0, 0.5), id="c2-12x64"),
        ],
    )
    def test_operators_match_explicit_rows(self, prob):
        prob = prob()
        op = schur_rows_at(prob, 6)
        u = explicit_schur_rows(prob, op)
        k = len(u)
        assert u.shape == (k, op.width)
        rng = np.random.default_rng(7)
        damp = prob.slack_rows                      # the rows a Woodbury core weighs
        u_damp = op.restrict(damp)
        weights = rng.uniform(0.0, 3.0, len(damp))
        t = rng.standard_normal(op.width)
        y = rng.standard_normal(k)

        def rel(got, ref):
            return np.abs(got - ref).max() / np.abs(ref).max()

        assert rel(u_damp.weighted_gram(weights), u[damp].T @ (weights[:, None] * u[damp])) <= 1e-12
        assert rel(op.matvec(t), u @ t) <= 1e-12
        assert rel(op.rmatvec(y), u.T @ y) <= 1e-12
        assert rel(u_damp.matvec(t), u[damp] @ t) <= 1e-12
        assert rel(u_damp.rmatvec(y[damp]), u[damp].T @ y[damp]) <= 1e-12
        assert rel(op.rows(np.arange(k)), u) <= 1e-12


class TestKKTResiduals:
    def test_small_at_optimum(self, mercedes_benz):
        prob = build_c1(mercedes_benz)
        sol = conic.solve(prob, conic.SolverSettings(gap_tol=1e-6, feas_tol=1e-6))
        res = conic.kkt_residuals(prob, sol)
        for value in (res.stationarity, res.pos_complementarity,
                      res.neg_complementarity, res.normalization):
            assert value <= 1e-5

    def test_handbuilt_point_normalization_residual(self, mercedes_benz):
        # with X = I and all multipliers zero, the normalization residual is q
        prob = build_c1(mercedes_benz)
        sol = conic.solve(prob, TIGHT)
        fake = conic.ConicSolution(
            X=np.eye(2), q=0.5, slacks=sol.slacks, extras=sol.extras,
            y=np.zeros_like(sol.y), dual_psd=None, q_dual=0.0,
            slack_duals=sol.slack_duals, extra_duals=sol.extra_duals,
            pobj=0.5, dobj=0.0, gap=1.0, rel_gap=1.0, primal_infeas=0.0,
            dual_infeas=0.0, status="MaxIter", iterations=0,
        )
        res = conic.kkt_residuals(prob, fake)
        assert res.normalization == pytest.approx(0.5, abs=1e-12)
        assert res.stationarity == pytest.approx(0.0, abs=1e-12)

    def test_scaled_duals_scale_normalization_affinely(self, mercedes_benz):
        prob = build_c1(mercedes_benz)
        sol = conic.solve(prob, TIGHT)
        base = conic.kkt_residuals(prob, sol)
        pos = prob.pair_pos_rows
        neg = prob.pair_neg_rows
        z_sum = -(sol.y[pos].sum() + sol.y[neg].sum())
        for t in (0.5, 2.0):
            scaled = conic.ConicSolution(
                X=sol.X, q=sol.q, slacks=sol.slacks, extras=sol.extras,
                y=t * sol.y, dual_psd=sol.dual_psd, q_dual=sol.q_dual,
                slack_duals=sol.slack_duals, extra_duals=sol.extra_duals,
                pobj=sol.pobj, dobj=sol.dobj, gap=sol.gap, rel_gap=sol.rel_gap,
                primal_infeas=0.0, dual_infeas=0.0, status=sol.status,
                iterations=sol.iterations,
            )
            res = conic.kkt_residuals(prob, scaled)
            assert res.normalization == pytest.approx(abs(sol.q * (1 - t * z_sum)), abs=1e-9)
        assert base.normalization <= 1e-6

    def test_requires_labels(self):
        prob = one_variable_lp()
        sol = conic.solve(prob, TIGHT)
        with pytest.raises(ValueError):
            conic.kkt_residuals(prob, sol)


class TestEigenvalueBounds:
    def test_equal_bounds_pin_identity(self, sign_pattern_frame):
        prob = build_c2(sign_pattern_frame, 1.0, 1.0)
        sol = conic.solve(prob, TIGHT)
        assert sol.status == conic.SolverStatus.OPTIMAL
        assert np.abs(sol.X - np.eye(3)).max() <= 1e-12
        assert sol.q == pytest.approx(0.5, abs=1e-6)

    def test_nested_feasible_sets(self):
        fr = frames.random_gaussian_frame(5, 12, 9)
        qs = []
        for t1 in (1.5, 2.5, 4.0):
            prob = build_c1(fr)
            prob.eig_bounds = (t1, 0.25)
            sol = conic.solve(prob, conic.SolverSettings(gap_tol=1e-7, feas_tol=1e-7))
            assert sol.status == conic.SolverStatus.OPTIMAL
            qs.append(sol.q)
        assert qs[0] >= qs[1] - 2e-7 and qs[1] >= qs[2] - 2e-7
        unconstrained = conic.solve(build_c1(fr), TIGHT).q
        assert qs[-1] >= unconstrained - 2e-7

    def test_bound_spectrum_respected(self):
        fr = frames.random_gaussian_frame(4, 9, 13)
        prob = build_c1(fr)
        prob.eig_bounds = (2.0, 0.5)
        sol = conic.solve(prob, TIGHT)
        eig = np.linalg.eigvalsh(sol.X)
        assert eig[0] >= 0.5 - 1e-6 and eig[-1] <= 2.0 + 1e-6

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            conic.ConicProblem(psd_dim=2, rhs=np.zeros(1), eig_bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            conic.ConicProblem(psd_dim=2, rhs=np.zeros(1), eig_bounds=(np.inf, 0.5))


class TestStatusHandling:
    def test_max_iter_flagged(self):
        fr = frames.random_gaussian_frame(4, 10, 17)
        sol = conic.solve(build_c1(fr), conic.SolverSettings(max_iter=2))
        assert sol.status == conic.SolverStatus.MAX_ITER
        assert sol.iterations <= 2
        assert np.isfinite(sol.q)

    def test_iterates_strictly_interior_on_return(self):
        fr = frames.random_gaussian_frame(3, 8, 19)
        sol = conic.solve(build_c1(fr), TIGHT)
        assert np.linalg.eigvalsh(sol.X).min() > 0
        assert (sol.slacks > 0).all()
