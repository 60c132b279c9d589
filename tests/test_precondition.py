import warnings

import numpy as np
import pytest

from framecond import conic, experiments, frames, precondition as pc
from framecond.numerics import NotPositiveDefinite, RankDeficient

SET8 = conic.SolverSettings(gap_tol=1e-8, feas_tol=1e-8)


class TestBuilders:
    def test_row_counts_small(self, mercedes_benz):
        prob = pc.build_c1(mercedes_benz)
        assert prob.psd_dim == 2
        assert prob.n_rows == 3 + 6
        assert prob.slack_count == 6

    def test_row_counts_large(self):
        fr = frames.random_gaussian_frame(4, 64, 0)
        prob = pc.build_c1(fr)
        assert prob.n_rows == 64 + 4032
        assert prob.slack_count == 4032

    def test_pair_rows_share_coefficient_with_opposite_sign(self, mercedes_benz):
        prob = pc.build_c1(mercedes_benz)
        # 3 unit-norm rows, then the 3 "+q" and the 3 "-q" pair rows
        pos = np.arange(3, 6)
        neg = np.arange(6, 9)
        pairs = prob.atoms[prob.row_atoms]
        assert (pairs[pos] == pairs[neg]).all()
        assert (prob.row_alpha[pos] == -prob.row_alpha[neg]).all()

    def test_non_unit_norm_normalized_with_warning(self):
        fr = frames.Frame(2.0 * np.eye(3))
        with pytest.warns(RuntimeWarning, match="unit norm"):
            prob = pc.build_c1(fr)
        diag_u = prob.atoms[prob.row_atoms[np.arange(3), 0]]
        assert np.abs(np.linalg.norm(diag_u, axis=1) - 1.0).max() <= 1e-12

    def test_c2_bound_validation(self, mercedes_benz):
        with pytest.raises(pc.InvalidBounds):
            pc.build_c2(mercedes_benz, 0.5, 0.1)     # t1 < 1 infeasible
        with pytest.raises(pc.InvalidBounds):
            pc.build_c2(mercedes_benz, 3.0, 1.5)     # t2 > 1 infeasible
        with pytest.raises(pc.InvalidBounds):
            pc.build_c2(mercedes_benz, 1.0, 2.0)     # t1 < t2
        with pytest.raises(pc.InvalidBounds):
            pc.build_c2(mercedes_benz, np.inf, 0.5)  # must be finite

    def test_c2_equal_or_unit_bounds_pin_identity(self, mercedes_benz):
        assert pc.build_c2(mercedes_benz, 1.0, 1.0).eig_bounds == (1.0, 1.0)
        assert pc.build_c2(mercedes_benz, 4.0, 1.0).eig_bounds == (1.0, 1.0)
        assert pc.build_c2(mercedes_benz, 1.0, 0.3).eig_bounds == (1.0, 1.0)
        assert pc.build_c2(mercedes_benz, 2.0, 0.5).eig_bounds == (2.0, 0.5)


class TestSolveCoherence:
    def test_mercedes_benz_no_improvement(self, mercedes_benz):
        res = pc.solve_coherence(mercedes_benz, SET8)
        assert res.q == pytest.approx(0.5, abs=1e-5)
        assert res.verified_coherence == pytest.approx(0.5, abs=1e-5)
        # all three pairs sit at -q for the equiangular frame
        assert len(res.active_neg) == 3 and not res.active_pos

    def test_sign_pattern_closed_form(self, sign_pattern_frame):
        res = pc.solve_coherence(sign_pattern_frame, SET8)
        assert res.q == pytest.approx(1.0 / 3.0, abs=1e-5)
        assert np.abs(res.X - np.diag([4.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0])).max() <= 1e-4
        assert res.coherence_before == pytest.approx(0.5, abs=1e-12)

    def test_result_invariants_random(self):
        fr = frames.random_gaussian_frame(6, 14, 21)
        res = pc.solve_coherence(fr, SET8)
        assert abs(res.q - res.verified_coherence) <= 1e-5
        gram = (res.G @ fr.matrix).T @ (res.G @ fr.matrix)
        assert np.abs(np.diag(gram) - 1.0).max() <= 1e-6
        kappa_x = np.linalg.cond(res.X + res.jitter * np.eye(fr.m))
        assert res.condition_number**2 == pytest.approx(kappa_x, rel=1e-6)
        assert res.q >= frames.welch_bound(6, 14) - 1e-6

    def test_welch_floor_attained_for_equiangular(self, sign_pattern_frame):
        res = pc.solve_coherence(sign_pattern_frame, SET8)
        assert res.q == pytest.approx(frames.welch_bound(3, 4), abs=1e-5)

    def test_jitter_is_a_field_not_a_warning(self):
        # this frame's optimal X has a smallest eigenvalue below 1e-9
        fr = frames.random_gaussian_frame(8, 16, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = pc.solve_coherence(fr, SET8)
        assert res.jitter > 0.0


class TestAdversarialSizes:
    """m = 1 and m = M - 1 frames, with and without eigenvalue bounds."""

    @pytest.mark.parametrize("bounds", [None, (2.0, 0.5)], ids=["c1", "c2"])
    @pytest.mark.parametrize("shape", [(1, 8, 0), (1, 16, 3)], ids=["1x8", "1x16"])
    def test_single_row(self, shape, bounds):
        # every column of a unit-norm 1 x M frame is +-1, so every G keeps
        # coherence 1
        res = pc.solve_coherence(frames.random_gaussian_frame(*shape), bounds=bounds)
        assert res.solution.status == conic.SolverStatus.OPTIMAL
        assert res.q == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("bounds", [None, (2.0, 0.5)], ids=["c1", "c2"])
    @pytest.mark.parametrize("shape", [(15, 16, 0), (7, 8, 2)], ids=["15x16", "7x8"])
    def test_one_row_short_of_square(self, shape, bounds):
        fr = frames.random_gaussian_frame(*shape)
        res = pc.solve_coherence(fr, bounds=bounds)
        assert res.solution.status == conic.SolverStatus.OPTIMAL
        assert res.verified_coherence == pytest.approx(res.q, abs=1e-5)
        assert frames.welch_bound(fr.m, fr.n_vectors) <= res.q <= frames.coherence(fr)


class TestDiagonalLP:
    def test_sign_pattern_witness(self, sign_pattern_frame):
        res = pc.diagonal_lp(sign_pattern_frame, SET8)
        assert res.q == pytest.approx(1.0 / 3.0, abs=1e-5)
        assert np.abs(np.diag(res.X) - [4.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0]).max() <= 1e-5
        expect_g = np.diag(np.sqrt([4.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0]))
        assert np.abs(res.G - expect_g).max() <= 1e-5

    def test_full_squared_span_returns_identity(self):
        e1, e2 = np.eye(2)
        fr = frames.Frame(np.column_stack([e1, e2, (e1 + e2) / np.sqrt(2)]))
        res = pc.diagonal_lp(fr, SET8)
        assert np.abs(np.diag(res.X) - 1.0).max() <= 1e-5
        assert res.q == pytest.approx(res.coherence_before, abs=1e-5)

    def test_binary_frame_unchanged(self):
        mat = np.array([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 0]], dtype=float)
        fr = frames.Frame(mat / np.linalg.norm(mat, axis=0))
        res = pc.diagonal_lp(fr, SET8)
        assert np.abs(np.diag(res.X) - 1.0).max() <= 1e-5
        assert res.q == pytest.approx(res.coherence_before, abs=1e-5)

    def test_scaling_stays_positive(self, sign_pattern_frame):
        res = pc.diagonal_lp(sign_pattern_frame, SET8)
        assert (np.diag(res.X) > 0).all()

    @pytest.mark.parametrize("m", [8, 12, 30])
    def test_presolve_drops_unit_norm_rows_seen_by_diagonal(self, m):
        # a diagonal X sees only the squared columns, which span R^m: 64 - m
        # of the 64 unit-norm rows are implied and go, so the Woodbury path
        # has a nonsingular free block
        linprog = pytest.importorskip("scipy.optimize").linprog
        seed = int(experiments.trial_rng(0, experiments.FRAME_STREAM, m, 0, 0).integers(2**63))
        fr = frames.random_gaussian_frame(m, 64, seed)
        settings = conic.SolverSettings(gap_tol=1e-8, feas_tol=1e-8)
        res = pc.diagonal_lp(fr, settings)
        sol = res.solution
        assert sol.status == conic.SolverStatus.OPTIMAL
        assert len(sol.dropped_rows) == 64 - m
        # the LP form of the KKT residuals
        kkt = pc.kkt_residuals(fr, sol)
        for value in (kkt.stationarity, kkt.pos_complementarity, kkt.neg_complementarity, kkt.normalization,
                      kkt.primal_feasibility, kkt.duality_gap):
            assert value <= 10 * settings.gap_tol
        phi = fr.matrix
        iu, ju = np.triu_indices(64, k=1)
        pair = (phi[:, iu] * phi[:, ju]).T
        ones = np.ones((len(iu), 1))
        ref = linprog(
            np.r_[np.zeros(m), 1.0],
            A_ub=np.vstack([np.hstack([pair, -ones]), np.hstack([-pair, -ones])]),
            b_ub=np.zeros(2 * len(iu)),
            A_eq=np.hstack([(phi**2).T, np.zeros((64, 1))]),
            b_eq=np.ones(64),
            bounds=[(0, None)] * (m + 1),
            method="highs",
        )
        assert ref.status == 0
        assert res.q == pytest.approx(ref.fun, abs=1e-6)


class TestSquaredSpan:
    def test_planted_full(self):
        e1, e2 = np.eye(2)
        fr = frames.Frame(np.column_stack([e1, e2, (e1 + e2) / np.sqrt(2)]))
        assert pc.squared_span_dimension(fr) == 2

    def test_sign_pattern_deficient(self, sign_pattern_frame):
        assert pc.squared_span_dimension(sign_pattern_frame) == 2

    def test_orthonormal_full(self):
        assert pc.squared_span_dimension(frames.Frame(np.eye(4))) == 4

    def test_predicts_diagonal_identity(self):
        rng = np.random.default_rng(33)
        for seed in range(5):
            fr = frames.random_gaussian_frame(3, 7, seed)
            assert pc.squared_span_dimension(fr) == 3
            res = pc.diagonal_lp(fr, SET8)
            assert np.abs(np.diag(res.X) - 1.0).max() <= 1e-4


class TestExtractPreconditioner:
    def test_identity(self):
        g, jitter = pc.extract_preconditioner(np.eye(4))
        assert np.allclose(g, np.eye(4)) and jitter == 0.0

    def test_diagonal_square_root(self):
        g, jitter = pc.extract_preconditioner(np.diag([4.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0]))
        assert np.allclose(g, np.diag(np.sqrt([4.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0])))
        assert jitter == 0.0

    def test_roundtrip_random_spd(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal((6, 6))
        x = b.T @ b + np.eye(6)
        g, jitter = pc.extract_preconditioner(x)
        assert jitter == 0.0
        assert np.linalg.norm(g.T @ g - x) <= 1e-9 * np.linalg.norm(x)
        assert np.allclose(g, np.triu(g))

    def test_boundary_jitter_flagged(self):
        x = np.diag([1.0, 1e-12])
        g, jitter = pc.extract_preconditioner(x)
        assert jitter > 0.0
        assert np.linalg.norm(g.T @ g - x) <= 10 * jitter * np.sqrt(2)

    def test_clearly_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            pc.extract_preconditioner(np.diag([1.0, -0.5]))


class TestNearestTightFrame:
    def test_already_tight_fixed_point(self, mercedes_benz):
        out = pc.nearest_tight_frame(mercedes_benz, 1.5)
        assert np.abs(out.matrix - mercedes_benz.matrix).max() <= 1e-9

    def test_tightness_and_formula(self):
        fr = frames.random_gaussian_frame(4, 10, 3)
        alpha = 10.0 / 4.0
        out = pc.nearest_tight_frame(fr, alpha)
        assert np.linalg.norm(out.matrix @ out.matrix.T - alpha * np.eye(4)) <= 1e-8
        from scipy.linalg import sqrtm

        alt = np.sqrt(alpha) * np.linalg.inv(sqrtm(fr.matrix @ fr.matrix.T).real) @ fr.matrix
        assert np.abs(out.matrix - alt).max() <= 1e-8

    def test_nearness_against_sampled_tight_frames(self):
        rng = np.random.default_rng(9)
        fr = frames.random_gaussian_frame(3, 7, 5)
        alpha = 7.0 / 3.0
        out = pc.nearest_tight_frame(fr, alpha)
        dist = np.linalg.norm(out.matrix - fr.matrix)
        for _ in range(100):
            q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
            candidate = np.sqrt(alpha) * q[:, :3].T   # rows orthonormal: alpha-tight
            assert dist <= np.linalg.norm(candidate - fr.matrix) + 1e-12

    def test_rank_deficient_rejected(self):
        fr = frames.random_gaussian_frame(3, 7, 5)
        with pytest.raises(frames.InvalidShape):
            # rank-deficient matrices cannot even be Frames
            pc.nearest_tight_frame(frames.Frame(np.vstack([fr.matrix[:2], fr.matrix[1]])), 1.0)


class TestComposeTight:
    def test_identity_on_tight_frame(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        tight = frames.Frame(np.sqrt(8.0 / 3.0) * q[:, :3].T)
        g1, out = pc.compose_tight_preconditioner(np.eye(3), tight)
        assert np.abs(out.matrix - tight.matrix).max() <= 1e-9

    def test_pipeline_tightness(self):
        fr = frames.random_gaussian_frame(12, 64, 1)
        res = pc.solve_coherence(fr, conic.SolverSettings(gap_tol=1e-6, feas_tol=1e-6))
        g1, tight = pc.compose_tight_preconditioner(res.G, fr)
        defect = np.linalg.norm(tight.matrix @ tight.matrix.T - (64.0 / 12.0) * np.eye(12))
        assert defect <= 1e-7
        assert np.abs(g1 @ fr.matrix - tight.matrix).max() <= 1e-8
        assert np.linalg.cond(g1) < 1e8   # invertible

    def test_matches_nearest_tight_frame(self):
        fr = frames.random_gaussian_frame(4, 9, 6)
        g = np.diag([1.0, 2.0, 0.5, 1.5])
        g1, tight = pc.compose_tight_preconditioner(g, fr)
        direct = pc.nearest_tight_frame(frames.Frame(g @ fr.matrix), 9.0 / 4.0)
        assert np.abs(tight.matrix - direct.matrix).max() <= 1e-8


class TestActiveSets:
    def test_unique_max_pair(self):
        e1, e2 = np.eye(2)
        fr = frames.Frame(np.column_stack([e1, e2, np.array([2.0, 1.0]) / np.sqrt(5)]))
        pos, neg = pc.active_sets(fr, np.eye(2), frames.coherence(fr))
        assert pos == [(0, 2)] and not neg

    def test_equiangular_all_active(self, mercedes_benz):
        pos, neg = pc.active_sets(mercedes_benz, np.eye(2), 0.5)
        assert len(pos) + len(neg) == 3

    def test_zero_tolerance_usually_empty(self):
        fr = frames.random_gaussian_frame(3, 8, 7)
        mu = frames.coherence(fr) * (1 + 1e-13)
        pos, neg = pc.active_sets(fr, np.eye(3), mu, tau=0.0)
        assert len(pos) + len(neg) == 0

    def test_requires_positive_q(self, mercedes_benz):
        with pytest.raises(ValueError):
            pc.active_sets(mercedes_benz, np.eye(2), 0.0)


def _highs_certificate(linprog, phi, pos, neg):
    """The certificate's primal LP, min t over free column weights a and pair
    weights r >= 0 summing to one with |sum a C + sum r P| <= t entrywise,
    restated from its definition and solved by HiGHS."""
    m, big_m = phi.shape
    tri = np.triu_indices(m)

    def entries(i, j):
        return (0.5 * (np.outer(phi[:, i], phi[:, j]) + np.outer(phi[:, j], phi[:, i])))[tri]

    cols = np.column_stack(
        [entries(i, i) for i in range(big_m)]
        + [entries(i, j) for i, j in pos]
        + [-entries(i, j) for i, j in neg]
    )
    n_r = len(pos) + len(neg)
    t_col = -np.ones((len(tri[0]), 1))
    a_ub = np.vstack([np.hstack([cols, t_col]), np.hstack([-cols, t_col])])
    a_eq = np.zeros((1, big_m + n_r + 1))
    a_eq[0, big_m : big_m + n_r] = 1.0
    c = np.zeros(big_m + n_r + 1)
    c[-1] = 1.0
    ref = linprog(c, A_ub=a_ub, b_ub=np.zeros(len(a_ub)), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(None, None)] * big_m + [(0, None)] * (n_r + 1), method="highs")
    assert ref.status == 0
    return ref.fun


class TestCertificate:
    def test_mercedes_benz_feasible(self, mercedes_benz):
        cert = pc.certificate_feasibility(mercedes_benz)
        assert cert.feasible
        assert cert.max_violation <= 1e-7
        w = cert.witness
        # replay the witness into the matrix equation
        phi = mercedes_benz.matrix
        total = sum(w["r_ii"][i] * np.outer(phi[:, i], phi[:, i]) for i in range(3))
        for weight, (i, j) in zip(w["r_ij"], cert.active_pos):
            total += weight * 0.5 * (np.outer(phi[:, i], phi[:, j]) + np.outer(phi[:, j], phi[:, i]))
        for weight, (i, j) in zip(w["r_ji"], cert.active_neg):
            total -= weight * 0.5 * (np.outer(phi[:, i], phi[:, j]) + np.outer(phi[:, j], phi[:, i]))
        assert np.abs(total).max() <= 1e-6
        assert sum(w["r_ij"]) + sum(w["r_ji"]) == pytest.approx(1.0, abs=1e-7)

    def test_sign_pattern_infeasible(self, sign_pattern_frame):
        cert = pc.certificate_feasibility(sign_pattern_frame)
        assert not cert.feasible
        assert cert.max_violation > 1e-4

    def test_matches_lstsq_oracle_single_pair(self):
        # with a unique active pair the system is linear: r_ij = 1 forced,
        # feasibility means -A_pair lies in the span of the rank-one terms
        fr = frames.random_gaussian_frame(3, 8, 15)
        cert = pc.certificate_feasibility(fr)
        pos, neg = cert.active_pos, cert.active_neg
        assert len(pos) + len(neg) == 1
        phi = fr.matrix
        (i, j) = (pos or neg)[0]
        sign = 1.0 if pos else -1.0
        pair_mat = 0.5 * (np.outer(phi[:, i], phi[:, j]) + np.outer(phi[:, j], phi[:, i]))
        tri = np.triu_indices(3)
        cols = np.array([np.outer(phi[:, k], phi[:, k])[tri] for k in range(8)]).T
        resid = np.linalg.lstsq(cols, -sign * pair_mat[tri], rcond=None)[1]
        oracle_feasible = bool(resid.size == 0 or resid[0] <= 1e-14)
        assert cert.feasible == oracle_feasible

    def test_matches_linprog_oracle(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        for seed in (3, 8, 21):
            fr = frames.random_gaussian_frame(3, 6, seed)
            cert = pc.certificate_feasibility(fr)
            ref = _highs_certificate(linprog, fr.matrix, cert.active_pos, cert.active_neg)
            assert cert.max_violation == pytest.approx(ref, abs=1e-6)

    @pytest.mark.parametrize("m, trial", [(8, 0), (12, 0), (12, 1), (30, 0), (30, 1)])
    def test_dual_lp_matches_highs_on_seeded_frames(self, m, trial, monkeypatch):
        # the seeded m x 64 frames of the experiment tables; at m = 8 the 64
        # column rows live in a 36-dimensional space, so presolve drops 28
        linprog = pytest.importorskip("scipy.optimize").linprog
        seed = int(experiments.trial_rng(0, experiments.FRAME_STREAM, m, 0, trial).integers(2**63))
        fr = frames.random_gaussian_frame(m, 64, seed)
        solves = []
        real_solve = conic.solve

        def spy(prob, settings=conic.SolverSettings()):
            sol = real_solve(prob, settings)
            solves.append((prob, sol))
            return sol

        monkeypatch.setattr(conic, "solve", spy)
        cert = pc.certificate_feasibility(fr)
        (prob, sol), = solves
        n_active = len(cert.active_pos) + len(cert.active_neg)
        assert prob.n_rows == 64 + n_active + 1
        assert sol.status == conic.SolverStatus.OPTIMAL
        if m == 8:
            assert len(sol.dropped_rows) == 64 - m * (m + 1) // 2
        ref = _highs_certificate(linprog, fr.matrix, cert.active_pos, cert.active_neg)
        assert abs(cert.max_violation - ref) <= 1e-6
        assert cert.feasible == (ref <= pc.CERTIFICATE_TOL)

    def test_empty_active_set_rejected(self, mercedes_benz):
        with pytest.raises(ValueError, match="active pair"):
            pc.certificate_feasibility(mercedes_benz, [], [])

    def test_solver_consistency_contrapositive(self):
        fr = frames.random_gaussian_frame(8, 16, 3)
        res = pc.solve_coherence(fr, SET8)
        assert res.q < res.coherence_before - 1e-4
        cert = pc.certificate_feasibility(fr)
        assert not cert.feasible

    def test_zero_coherence_rejected(self):
        with pytest.raises(frames.ZeroCoherence):
            pc.certificate_feasibility(frames.Frame(np.eye(3)))


class TestInvariantSweeps:
    def test_never_worse_and_welch_floor(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            m = int(rng.integers(2, 7))
            big = int(rng.integers(m + 1, 13))
            fr = frames.random_gaussian_frame(m, big, int(rng.integers(2**62)))
            res = pc.solve_coherence(fr, SET8)
            assert res.verified_coherence <= res.coherence_before + 1e-5
            assert res.q >= frames.welch_bound(m, big) - 1e-6
            assert abs(res.q - res.verified_coherence) <= 1e-5
