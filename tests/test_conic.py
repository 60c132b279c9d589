from dataclasses import replace

import numpy as np
import pytest

from framecond import conic, experiments, frames
from framecond.precondition import (
    build_c1, build_c2, build_diagonal_lp, diagonal_lp, kkt_residuals, solve_coherence,
)

TIGHT = conic.SolverSettings(gap_tol=1e-8, feas_tol=1e-8)


def seeded_frame(m, n_vectors=64, trial=0):
    seed = int(experiments.trial_rng(0, experiments.FRAME_STREAM, m, 0, trial).integers(2**63))
    return frames.random_gaussian_frame(m, n_vectors, seed)


def iterate_at(prob, iters):
    """The stacks of PSD blocks (X, then W1 and W2 under bounds) and of their
    dual slacks, and the scalar pair (x, s), at the iterate a solve capped at
    ``iters`` returns."""
    sol = conic.solve(prob, conic.SolverSettings(max_iter=iters))
    xs, ss = [sol.X], [sol.dual_psd]
    if prob.eig_bounds is not None:
        info = sol.bound_info
        xs += [info["upper_slack"], info["lower_slack"]]
        ss += [info["upper_dual"], info["lower_dual"]]
    xs, ss = np.array(xs), np.array(ss)
    x_lin = np.concatenate([[sol.q], sol.slacks, sol.extras])
    s_lin = np.concatenate([[sol.q_dual], sol.slack_duals, sol.extra_duals])
    return sol, xs, ss, x_lin, s_lin


def schur_rows_at(prob, iters):
    """The Schur operator at the iterate a solve capped at ``iters`` returns."""
    _, xs, ss, x_lin, s_lin = iterate_at(prob, iters)
    lay = conic._Layout(prob)
    scaling = None
    if lay.matrix_mode:
        scaling, _ = conic._hkm_scaling(lay, xs, conic._chol_inv(ss))
    return conic._SchurRows(lay, scaling, np.sqrt((x_lin / s_lin)[lay.shared_idx]))


def repeated_atoms_frame():
    """6 x 40: 24 Gaussian columns, then exact duplicates of 8 of them and
    negatives of 8 more, so the Khatri-Rao core sees repeated atoms."""
    base = frames.random_gaussian_frame(6, 24, 4).matrix
    return frames.Frame(np.hstack([base, base[:, :8], -base[:, 8:16]]))


def basis_pursuit_lp(a, y):
    """The split basis-pursuit LP: rows ``a (u - v) = y`` and
    ``sum(u + v) - q = 0``, with u, v as extras."""
    m, big_m = a.shape
    extras = np.zeros((m + 1, 2 * big_m))
    extras[:m] = np.hstack([a, -a])
    extras[m] = 1.0
    row_q = np.zeros(m + 1)
    row_q[m] = -1.0
    return conic.ConicProblem(psd_dim=0, rhs=np.append(y, 0.0), row_q=row_q, extras=extras)


def svec_basis(m):
    """Q with orthonormal columns and ``Q svec(M) = vec(M)`` for symmetric M
    (row-major vec, upper-triangle svec with off-diagonal entries times sqrt 2)."""
    tri_r, tri_c = np.triu_indices(m)
    q = np.zeros((m * m, len(tri_r)))
    for j, (r, c) in enumerate(zip(tri_r, tri_c)):
        w = 1.0 if r == c else np.sqrt(0.5)
        q[r * m + c, j] = q[c * m + r, j] = w
    return q


def svec_rows(prob, q):
    """svec(A_k) for every row, straight from the rows' atom pairs."""
    pairs = prob.atoms[prob.row_atoms]
    u, v, alpha = pairs[:, 0], pairs[:, 1], prob.row_alpha
    k, m = u.shape
    vec = (u[:, :, None] * v[:, None, :] + v[:, :, None] * u[:, None, :]).reshape(k, m * m)
    return (0.5 * alpha)[:, None] * vec @ q


def hkm_block(q, x, s):
    """``X (x)_s S^-1`` in svec coordinates, as ``Q^T (X kron S^-1) Q``."""
    return q.T @ np.kron(x, np.linalg.inv(s)) @ q


def coherence_of(mat):
    mat = mat / np.linalg.norm(mat, axis=0)
    gram = mat.T @ mat
    return np.abs(np.triu(gram, 1)).max()


def one_variable_lp():
    # min q subject to w = 1 and w - q + p = 0 with w, p >= 0
    return conic.ConicProblem(
        psd_dim=0,
        rhs=np.array([1.0, 0.0]),
        row_q=np.array([0.0, -1.0]),
        slack_rows=np.array([1]),
        extras=np.ones((2, 1)),
    )


class TestLinearProgram:
    def test_one_variable(self):
        sol = conic.solve(one_variable_lp(), TIGHT)
        assert sol.status == conic.SolverStatus.OPTIMAL
        assert sol.q == pytest.approx(1.0, abs=1e-7)
        assert sol.extras[0] == pytest.approx(1.0, abs=1e-7)

    def test_strong_duality(self):
        sol = conic.solve(one_variable_lp(), TIGHT)
        assert abs(sol.pobj - sol.dobj) <= 1e-7


class TestProblemValidation:
    """``ConicProblem`` rejects atom-pair row data it cannot solve."""

    @staticmethod
    def two_rows(**kw):
        # rows <a_0 a_0^T, X> = 1 and <sym(a_0 a_1^T), X> = 0 over 2 x 2 X
        data = dict(psd_dim=2, rhs=np.array([1.0, 0.0]), atoms=np.eye(2),
                    row_atoms=np.array([[0, 0], [0, 1]]), row_alpha=np.ones(2))
        return conic.ConicProblem(**{**data, **kw})

    def test_accepts_pairs_and_defaults_to_one_zero_atom(self):
        prob = self.two_rows()
        assert prob.row_atoms.dtype.kind == "i"
        lp = one_variable_lp()
        assert lp.atoms.shape == (1, 0)
        assert (lp.row_atoms == 0).all() and lp.row_atoms.shape == (2, 2)

    def test_atoms_of_wrong_width(self):
        with pytest.raises(ValueError, match=r"atoms must be an \(n, 2\) array"):
            self.two_rows(atoms=np.eye(3))
        with pytest.raises(ValueError, match=r"atoms must be an \(n, 2\) array"):
            self.two_rows(atoms=np.ones(2))

    @pytest.mark.parametrize("row_atoms", [np.zeros((2, 3), dtype=int), np.zeros((3, 2), dtype=int),
                                           np.zeros(2, dtype=int)])
    def test_row_atoms_not_k_by_2(self, row_atoms):
        with pytest.raises(ValueError, match=r"row_atoms must be a \(2, 2\) array"):
            self.two_rows(row_atoms=row_atoms)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_row_atoms_out_of_range(self, bad):
        with pytest.raises(ValueError, match="indices into the 2 atoms"):
            self.two_rows(row_atoms=np.array([[0, 0], [0, bad]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_atoms(self, bad):
        atoms = np.eye(2)
        atoms[1, 0] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            self.two_rows(atoms=atoms)


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

    def test_near_duplicate_columns_in_woodbury_mode(self):
        # 16 columns repeated up to 1e-6 in a 12 x 64 frame: 80 rows end up
        # free against a Woodbury core 79 wide, and all of them must stay free
        base = frames.random_gaussian_frame(12, 48, 3).matrix
        pert = base[:, :16] + 1e-6 * np.random.default_rng(5).standard_normal((12, 16))
        mat = np.hstack([base, pert / np.linalg.norm(pert, axis=0)])
        sol = conic.solve(build_c1(frames.Frame(mat)), TIGHT)
        assert sol.status == conic.SolverStatus.OPTIMAL
        assert sol.q == pytest.approx(1.0, abs=1e-6)


class TestPresolve:
    """``_pivoted_chol_dependents`` on the Gram matrix of rows with planted
    dependencies: the kept rows are independent and span the dropped ones."""

    @pytest.mark.parametrize("plant", ["duplicate", "sum", "zero"])
    def test_kept_rows_span_dropped_rows(self, plant):
        rng = np.random.default_rng(3)
        rows = np.zeros((10, 12))
        rows[:7] = rng.standard_normal((7, 12))
        if plant == "duplicate":
            rows[7:] = rows[[1, 4, 1]]
        elif plant == "sum":
            rows[7] = rows[0] + rows[2] + rows[5]
            rows[8] = rows[3] + rows[7]
            rows[9] = rows[1] + rows[6]
        else:
            rows[:] = 0.0
        gram = rows @ rows.T
        dropped = conic._pivoted_chol_dependents(gram)
        kept = np.setdiff1d(np.arange(len(rows)), dropped)
        rank = np.linalg.matrix_rank(gram)
        assert rank == (0 if plant == "zero" else 7)
        assert len(kept) == np.linalg.matrix_rank(rows[kept]) == rank
        basis = rows[kept].T
        coef = np.linalg.lstsq(basis, rows[dropped].T, rcond=None)[0]
        assert np.abs(basis @ coef - rows[dropped].T).max() <= 1e-10

    @staticmethod
    def check_against_lapack(gram):
        """``_pivoted_chol_dependents`` against LAPACK's ``dpstrf`` (the
        oracle): the same rank and the same dropped rows, each row named by
        the first row with the same Gram row up to sign and rounding.
        Copies of one row (up to sign) tie in exact arithmetic, and which
        copy a pivot takes then depends on rounding and on the order in
        which ties are broken (``dpstf2`` keeps a permuted order)."""
        dpstrf = pytest.importorskip("scipy.linalg.lapack").dpstrf
        _, piv, rank, _ = dpstrf(gram, tol=1e-12 * np.max(np.diag(gram)), lower=1)
        dropped = conic._pivoted_chol_dependents(gram)
        assert len(gram) - len(dropped) == rank
        tol = 1e-12 * np.abs(gram).max()
        same = np.minimum(
            np.abs(gram[:, None, :] - gram[None, :, :]).max(axis=2),
            np.abs(gram[:, None, :] + gram[None, :, :]).max(axis=2),
        ) <= tol
        first = same.argmax(axis=1)
        np.testing.assert_array_equal(np.sort(first[dropped]), np.sort(first[piv[rank:] - 1]))

    @pytest.mark.parametrize("n, dim", [(16, 20), (40, 30), (66, 80), (90, 60)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_lapack_pivoted_cholesky(self, n, dim, seed):
        # rows of unequal norms with a duplicate, a negated duplicate, a
        # scaled copy, combinations of two and of three rows and two zero
        # rows, at random positions; with n > dim the rows are dependent
        # anyway.  In each planted combination the coefficients differ in
        # magnitude: in a + b = c, once c is pivoted a and b have remaining
        # pivots equal in exact arithmetic but not row for row, and two
        # implementations break such a tie by their rounding
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0, size=(n, 1))
        i = rng.permutation(n)
        rows[i[0]] = rows[i[1]]
        rows[i[2]] = -rows[i[3]]
        rows[i[4]] = 3.0 * rows[i[5]]
        rows[i[6]] = 2.0 * rows[i[7]] + 3.0 * rows[i[8]]
        rows[i[9]] = 2.0 * rows[i[10]] - 3.0 * rows[i[11]] + 5.0 * rows[i[12]]
        rows[i[13]] = rows[i[14]] = 0.0
        self.check_against_lapack(rows @ rows.T)

    def test_duplicate_column_gram_matches_lapack(self, monkeypatch):
        # the free-row Gram that presolve builds for the duplicate-column
        # frame of TestCoherenceProgram
        grams = []
        pivoted = conic._pivoted_chol_dependents

        def capture(gram):
            grams.append(gram)
            return pivoted(gram)

        monkeypatch.setattr(conic, "_pivoted_chol_dependents", capture)
        base = frames.random_gaussian_frame(3, 6, 5).matrix
        conic.solve(build_c1(frames.Frame(np.hstack([base, base[:, :1]]))), TIGHT)
        assert len(grams) == 1
        self.check_against_lapack(grams[0])

    def test_contradictory_dependent_rows_raise(self):
        # x1 + x2 = 1 and 2 x1 + 2 x2 = 2 are one row; x1 + x2 = 2 contradicts it
        rhs = np.array([1.0, 2.0])
        sol = conic.solve(conic.ConicProblem(psd_dim=0, rhs=rhs, extras=np.array([[1.0, 1.0], [2.0, 2.0]])), TIGHT)
        assert sol.status == conic.SolverStatus.OPTIMAL and len(sol.dropped_rows) == 1
        with pytest.raises(ValueError, match=r"rows \[1\] depend on other equality rows"):
            conic.solve(conic.ConicProblem(psd_dim=0, rhs=rhs, extras=np.ones((2, 2))), TIGHT)

    def test_duplicate_column_with_contradictory_norm_raises(self):
        # column 8 repeats column 0, so phi_8^T X phi_8 = 2 contradicts phi_0^T X phi_0 = 1
        base = frames.random_gaussian_frame(4, 8, 5).matrix
        prob = build_c1(frames.Frame(np.hstack([base, base[:, :1]])))
        prob.rhs[8] = 2.0
        with pytest.raises(ValueError, match="contradict"):
            conic.solve(prob, TIGHT)

    def test_pinned_bounds_contradicting_unit_norm_rows_raise(self):
        # X = 2 I gives every unit-norm row phi_i^T X phi_i = 2, not 1
        prob = build_c1(frames.random_gaussian_frame(3, 6, 0))
        prob.eig_bounds = (2.0, 2.0)
        with pytest.raises(ValueError, match=r"rows \[0, 1, 2, 3, 4, 5\]"):
            conic.solve(prob, TIGHT)


def spd_matrix(n, cond, seed):
    """A symmetric positive definite matrix of order n with eigenvalues
    spread log-evenly over [1 / cond, 1], in a random basis."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    h = (q * np.logspace(0.0, -np.log10(cond), n)) @ q.T
    return 0.5 * (h + h.T)


def relative_residual(h, x, b):
    """``max_j ||h x_j - b_j|| / (||h|| ||x_j||)`` over the right-hand sides."""
    x, b = x.reshape(len(h), -1), b.reshape(len(h), -1)
    return float((np.linalg.norm(h @ x - b, axis=0) / (np.linalg.norm(h, 2) * np.linalg.norm(x, axis=0))).max())


class TestCholesky:
    """``_Cholesky`` (blocked factor, inverted diagonal blocks, sweeps by
    matrix products) against LAPACK's ``potrf``/``potrs``, the oracle."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 466])
    @pytest.mark.parametrize("cond", [1e2, 1e12])
    @pytest.mark.parametrize("n_rhs", [None, 7])
    def test_residual_within_4x_of_lapack(self, n, cond, n_rhs):
        sla = pytest.importorskip("scipy.linalg")
        h = spd_matrix(n, cond, n)
        b = np.random.default_rng(n + 1).standard_normal(n if n_rhs is None else (n, n_rhs))
        got = conic._Cholesky.factor(h).solve(b)
        ref = sla.cho_solve(sla.cho_factor(h, lower=True), b)
        assert got.shape == b.shape
        # machine epsilon floors the bound where LAPACK's residual is exactly 0
        assert relative_residual(h, got, b) <= 4.0 * max(relative_residual(h, ref, b), np.finfo(float).eps)

    def test_factor_and_sweeps(self):
        h = spd_matrix(130, 1e4, 7)
        fac = conic._Cholesky.factor(h)
        lower = fac.lower
        assert np.array_equal(lower, np.tril(lower))
        assert np.abs(lower @ lower.T - h).max() <= 1e-13
        b = np.random.default_rng(8).standard_normal((130, 3))
        assert np.abs(lower @ fac.forward(b) - b).max() <= 1e-12
        assert np.abs(lower.T @ fac.backward(b) - b).max() <= 1e-11

    @pytest.mark.parametrize("cond", [1e2, 1e12])
    def test_triangle_solves_match_substitution(self, cond):
        # a diagonal block's inverse applied to r, refined once when the
        # block is ill-conditioned, against LAPACK's triangular solves; with
        # solutions along the top right singular vectors the unrefined
        # inverse leaves residuals 5-12 times LAPACK's at cond 1e12
        sla = pytest.importorskip("scipy.linalg")
        lower = np.linalg.cholesky(spd_matrix(48, cond, 3))
        tri = conic._Triangle(lower)
        assert tri.refine == (cond > 1e6)
        for mat, solve in ((lower, tri.solve), (lower.T, tri.solve_t)):
            r = mat @ np.linalg.svd(mat)[2][:3].T

            def residual(t):
                return float((np.linalg.norm(mat @ t - r, axis=0) / (np.linalg.norm(mat, 2) * np.linalg.norm(t, axis=0))).max())

            ref = sla.solve_triangular(mat, r, lower=mat is lower)
            assert residual(solve(r)) <= 4.0 * max(residual(ref), np.finfo(float).eps)

    def test_inverse_of_a_given_triangle(self):
        # the bounded HKM scaling's T = R^-1 for a QR factor R, whose
        # diagonal carries both signs
        r = np.linalg.qr(np.random.default_rng(9).standard_normal((200, 130)), mode="r")
        assert (np.diag(r) < 0).any() and (np.diag(r) > 0).any()
        t = conic._Cholesky.of_factor(r.T).backward(np.eye(130))
        assert np.abs(r @ t - np.eye(130)).max() <= 1e-12

    @pytest.mark.parametrize("bad", [0, 63, 64, 129])
    def test_indefinite_block_raises_and_takes_a_ridge(self, bad):
        h = spd_matrix(130, 1e2, 10)
        h[bad, bad] -= 1.5
        with pytest.raises(np.linalg.LinAlgError):
            conic._Cholesky.factor(h)
        fac, ridge = conic._chol_with_ridge(h)
        assert ridge > 0.0
        b = np.ones(130)
        assert np.abs((h + ridge * np.eye(130)) @ fac.solve(b) - b).max() <= 1e-8


class TestStackedHelpers:
    """The helpers over a ``(3, m, m)`` stack, as the bounded program carries
    its PSD blocks, against one call per block: the same bits."""

    @pytest.fixture(params=[5, 40], ids=["m5", "m40"])   # 40: _tri_inv splits above order 32
    def stack(self, request):
        return np.array([spd_matrix(request.param, 1e4, seed) for seed in range(3)])

    @staticmethod
    def layout(m):
        return conic._Layout(conic.ConicProblem(psd_dim=m, rhs=np.zeros(1)))

    def test_cholesky_pair_and_triangle_inverse(self, stack):
        lower, inv = conic._chol_inv(stack)
        for b, a in enumerate(stack):
            one_lower, one_inv = conic._chol_inv(a)
            assert np.array_equal(lower[b], one_lower)
            assert np.array_equal(inv[b], one_inv)
            assert np.array_equal(conic._tri_inv(lower)[b], conic._tri_inv(one_lower))

    def test_svec_smat_skron(self, stack):
        lay = self.layout(stack.shape[-1])
        vecs = lay.svec(stack)
        p = np.linalg.cholesky(stack)       # not symmetric, as skron's P and Q
        mats, krons = lay.smat(vecs), lay.skron(p)
        for b, a in enumerate(stack):
            assert np.array_equal(vecs[b], lay.svec(a))
            assert np.array_equal(mats[b], lay.smat(vecs[b]))
            assert np.array_equal(krons[b], lay.skron(p[b]))
        assert np.allclose(mats, stack, rtol=0.0, atol=1e-15)

    def test_psd_max_step_is_the_smallest_block_step(self, stack):
        inv = conic._chol_inv(stack)[1]
        rng = np.random.default_rng(5)
        noise = rng.standard_normal(stack.shape)
        delta = noise + noise.mT
        steps = [conic._psd_max_step(inv[b], delta[b]) for b in range(3)]
        assert np.isfinite(steps).all()
        assert conic._psd_max_step(inv, delta) == min(steps)
        # a block that any step keeps PSD does not limit the stack
        delta[1] = stack[1]
        assert conic._psd_max_step(inv[1], delta[1]) == np.inf
        assert conic._psd_max_step(inv, delta) == min(steps[0], steps[2])
        assert conic._psd_max_step(inv, stack) == np.inf


class TestSharedRules:
    """The step length and the stopping test that conic.solve and the batched
    basis-pursuit kernel share, on a batch against one call per member."""

    def test_lin_max_step_batch_matches_rows(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0.1, 2.0, (6, 9))
        dx = rng.standard_normal((6, 9))
        dx[2] = np.abs(dx[2])          # no component decreases
        dx[4, :] = 0.0
        dx[4, 3] = -0.5                # one decreasing component
        steps = conic._lin_max_step(x, dx)
        assert steps.shape == (6,)
        assert np.array_equal(steps, [conic._lin_max_step(x[b], dx[b]) for b in range(6)])
        assert steps[2] == conic._lin_max_step(x[2], dx[2]) == np.inf
        assert steps[4] == x[4, 3] / 0.5
        finite = np.isfinite(steps)
        assert (x[finite] + steps[finite, None] * dx[finite] >= -1e-15).all()
        assert (np.min(x[finite] + steps[finite, None] * dx[finite], axis=1) <= 1e-15).all()

    def test_merit_on_arrays_matches_scalar_calls(self):
        settings = conic.SolverSettings(gap_tol=1e-7, feas_tol=1e-8)
        rng = np.random.default_rng(8)
        gap = 10.0 ** rng.uniform(-12, 0, 40)
        pobj = rng.standard_normal(40) * 10.0 ** rng.uniform(-2, 2, 40)
        dobj = pobj - 10.0 ** rng.uniform(-12, -4, 40) * rng.choice([-1, 1], 40)
        p_inf, d_inf = 10.0 ** rng.uniform(-11, -6, (2, 40))
        rel_gap, merit, basic_ok = conic._merit(gap, pobj, dobj, p_inf, d_inf, settings)
        assert basic_ok.any() and not basic_ok.all()
        for i in range(40):
            one = conic._merit(float(gap[i]), float(pobj[i]), float(dobj[i]), float(p_inf[i]),
                               float(d_inf[i]), settings)
            assert (rel_gap[i], merit[i], basic_ok[i]) == one
            scale = 1.0 + abs(pobj[i])
            assert one[1] == max(gap[i] / scale, abs(pobj[i] - dobj[i]) / scale, p_inf[i], d_inf[i])


class TestKKTModes:
    @staticmethod
    def check_solve(kkt, op, n):
        k = len(n)
        rng = np.random.default_rng(0)
        u = op.rows(np.arange(k))
        h = u @ u.T + np.diag(n)
        r = rng.standard_normal(k)
        expect = np.linalg.solve(h, r)
        got = kkt.solve(r)
        assert np.abs(got - expect).max() <= 1e-8 * np.abs(expect).max()
        assert kkt.ridges == 0
        r_bad = r.copy()
        r_bad[0] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            kkt.solve(r_bad)

    def test_factor_solves_linear_system(self):
        # 10 free unit-norm rows plus width 16 against k = 100 rows
        prob = build_c1(frames.random_gaussian_frame(5, 10, 0))
        op = schur_rows_at(prob, 3)
        k = prob.n_rows
        n = np.zeros(k)
        n[10:] = np.random.default_rng(1).uniform(1e-8, 5.0, size=k - 10)
        kkt = conic._KKTFactor(n, op)
        assert not kkt.dense
        self.check_solve(kkt, op, n)

    def test_woodbury_without_free_rows(self):
        # every row damped: Y is width x 0 and S_f is 0 x 0
        prob = build_c1(frames.random_gaussian_frame(5, 10, 0))
        op = schur_rows_at(prob, 3)
        n = np.random.default_rng(1).uniform(1e-3, 5.0, size=prob.n_rows)
        kkt = conic._KKTFactor(n, op)
        assert not kkt.dense and len(kkt.free) == 0
        self.check_solve(kkt, op, n)

    def test_wide_lp_is_dense(self):
        # basis pursuit on a 4 x 10 matrix: 5 rows against 21 columns; with
        # one free row the width alone makes the Woodbury core too large
        a = np.random.default_rng(2).standard_normal((4, 10))
        prob = basis_pursuit_lp(a, a[:, 3])
        op = schur_rows_at(prob, 3)
        assert (prob.n_rows, op.width) == (5, 21)
        n = np.zeros(prob.n_rows)
        n[1:] = np.random.default_rng(3).uniform(1e-3, 5.0, size=prob.n_rows - 1)
        kkt = conic._KKTFactor(n, op)
        assert len(kkt.free) == 1
        assert kkt.dense
        self.check_solve(kkt, op, n)

    def test_singular_system_counts_ridge(self):
        # without slack weights every row is free, so H = U U^T is factored
        # densely; its rank is at most width < k
        op = schur_rows_at(build_c1(frames.random_gaussian_frame(5, 10, 0)), 3)
        kkt = conic._KKTFactor(np.zeros(op.lay.k), op)
        assert kkt.dense
        assert kkt.ridges == 1


class TestStructuredSchur:
    """The svec Schur operator against U built row by row from the problem
    data, and its scaling against ``Q^T (X kron S^-1) Q``; no atom or svec
    bookkeeping is shared with ``_Layout``."""

    @pytest.mark.parametrize(
        "prob",
        [
            pytest.param(lambda: build_c1(seeded_frame(24)), id="c1-24x64"),
            pytest.param(lambda: build_c2(seeded_frame(12), 2.0, 0.5), id="c2-12x64"),
            pytest.param(lambda: build_c1(repeated_atoms_frame()), id="c1-6x40-repeated"),
        ],
    )
    def test_operators_match_explicit_rows(self, prob):
        prob = prob()
        _, xs, ss, x_lin, s_lin = iterate_at(prob, 6)
        op = schur_rows_at(prob, 6)
        q = svec_basis(prob.psd_dim)
        d_ref = np.linalg.inv(sum(np.linalg.inv(hkm_block(q, x, s)) for x, s in zip(xs, ss)))
        scale = np.sqrt(x_lin[0] / s_lin[0])      # the q column is the only shared one
        # R = (P (x)_s P) diag(s) T from the operator's factors; T = None is the identity
        t_mat = np.eye(len(op.s)) if op.t is None else op.t
        r_mat = q.T @ np.kron(op.p, op.p) @ q * op.s @ t_mat
        u = np.hstack([svec_rows(prob, q) @ r_mat, scale * prob.row_q[:, None]])
        k = len(u)
        assert u.shape == (k, op.width) == (k, q.shape[1] + 1)
        rng = np.random.default_rng(7)
        damp = prob.slack_rows                      # the rows a Woodbury core weighs
        weights = np.zeros(k)
        weights[damp] = rng.uniform(0.0, 3.0, len(damp))
        t = rng.standard_normal(op.width)
        y = rng.standard_normal(k)

        def rel(got, ref):
            return np.abs(got - ref).max() / np.abs(ref).max()

        assert rel(r_mat @ r_mat.T, d_ref) <= 1e-10
        assert rel(op.weighted_gram(weights), u.T @ (weights[:, None] * u)) <= 1e-12
        assert rel(op.matvec(t), u @ t) <= 1e-12
        assert rel(op.rmatvec(y), u.T @ y) <= 1e-12
        assert rel(op.rows(np.arange(k)), u) <= 1e-12


def full_hkm_direction(prob, xs, ss, x_lin, s_lin, y, rc_psd, rc_lin):
    """Solve the full HKM Newton system of a coherence program, from its data.

    Every PSD block b (X, and under bounds W1 = t1 I - X and W2 = X - t2 I)
    has its own primal and dual step.  Bounds tie the blocks by explicit
    coupling rows ``X + W1 = t1 I`` and ``X - W2 = t2 I`` with one multiplier
    per row, taken at ``-svec(S_W1)`` and ``svec(S_W2)``: that zeroes the
    W-block dual residuals and leaves the whole dual residual on X.  The
    unknowns are dX_b, dx_lin, dy, the coupling multiplier steps, dS_b and
    ds_lin.  Returns ``(dX_b, dy, dS_b)`` in svec coordinates, the residuals
    and the svec basis.  At 12 x 64 the system has about 12800 unknowns, so
    it is stored sparse.
    """
    sp = pytest.importorskip("scipy.sparse")
    spla = pytest.importorskip("scipy.sparse.linalg")
    m, k = prob.psd_dim, prob.n_rows
    q = svec_basis(m)
    nt = q.shape[1]
    a_s = sp.csr_matrix(svec_rows(prob, q))
    n_lin = len(x_lin)
    b_lin = np.zeros((k, n_lin))
    b_lin[:, 0] = prob.row_q
    b_lin[prob.slack_rows, 1 + np.arange(prob.slack_count)] = 1.0
    b_lin = sp.csr_matrix(b_lin)
    n_blk = len(xs)
    signs = [1.0, -1.0, 1.0][:n_blk]     # the sign of X in each block

    def svec(mat):
        return q.T @ mat.ravel()

    # residuals at the iterate
    rp = prob.rhs - a_s @ svec(xs[0]) - b_lin @ x_lin
    rd_x = -(a_s.T @ y + sum(sg * svec(s) for sg, s in zip(signs, ss)))
    rd_lin = np.r_[1.0, np.zeros(n_lin - 1)] - s_lin - b_lin.T @ y
    # column blocks: dX_b, dx_lin, dy, coupling steps (one per bound block), dS_b, ds_lin
    sizes = [nt] * n_blk + [n_lin, k] + [nt] * (n_blk - 1) + [nt] * n_blk + [n_lin]
    c_xl, c_y = n_blk, n_blk + 1
    c_s = 2 * n_blk + 1
    eye = sp.identity(nt)
    rows, rhs = [], []

    def add(entries, value):
        row = [None] * len(sizes)
        for col, mat in entries.items():
            row[col] = mat
        rows.append(row)
        rhs.append(value)

    add({0: a_s, c_xl: b_lin}, rp)
    for b in range(1, n_blk):            # coupling rows: X - sign_b W_b = const
        add({0: eye, b: -signs[b] * eye}, np.zeros(nt))
    add({c_y: a_s.T, c_s: eye, **{c_y + b: eye for b in range(1, n_blk)}}, rd_x)
    for b in range(1, n_blk):            # W-block dual rows
        add({c_y + b: -signs[b] * eye, c_s + b: eye}, np.zeros(nt))
    add({c_y: b_lin.T, len(sizes) - 1: sp.identity(n_lin)}, rd_lin)
    for b in range(n_blk):               # dX_b + (X_b (x)_s S_b^-1) dS_b = svec(rc_b S_b^-1)
        add({b: eye, c_s + b: sp.csr_matrix(hkm_block(q, xs[b], ss[b]))},
            svec(rc_psd[b] @ np.linalg.inv(ss[b])))
    add({c_xl: sp.diags(s_lin), len(sizes) - 1: sp.diags(x_lin)}, rc_lin)
    sol = np.split(spla.spsolve(sp.bmat(rows, format="csc"), np.concatenate(rhs)), np.cumsum(sizes)[:-1])
    return sol[:n_blk], sol[c_y], sol[c_s : c_s + n_blk], (rp, rd_x, rd_lin), q


class TestSvecDirection:
    @pytest.mark.parametrize(
        "prob",
        [
            pytest.param(lambda: build_c1(seeded_frame(12)), id="c1-12x64"),
            pytest.param(lambda: build_c2(seeded_frame(12), 2.0, 0.5), id="c2-12x64"),
        ],
    )
    def test_matches_full_kkt_system(self, prob):
        # the svec direction, with bound blocks folded into one scaling, is a
        # block elimination of the full system with explicit coupling rows
        prob = prob()
        sol, xs, ss, x_lin, s_lin = iterate_at(prob, 8)
        assert sol.status == conic.SolverStatus.MAX_ITER
        # the iterates are feasible up to rounding; a small push off both
        # affine sets gives every residual term of the system a weight
        rng = np.random.default_rng(3)
        noise = rng.standard_normal((12, 12))
        ss[0] = ss[0] + 1e-4 * noise @ noise.T
        x_lin = x_lin * (1.0 + 1e-2 * rng.uniform(size=len(x_lin)))
        y = sol.y + 1e-4 * rng.standard_normal(len(sol.y))
        mu = (sum(np.tensordot(x, s) for x, s in zip(xs, ss)) + x_lin @ s_lin) / (12 * len(xs) + len(x_lin))
        rc_psd = 0.3 * mu * np.eye(12) - xs @ ss
        rc_lin = 0.3 * mu - x_lin * s_lin
        d_x, d_y, d_s, (rp, rd_x, rd_lin), q = full_hkm_direction(
            prob, xs, ss, x_lin, s_lin, y, rc_psd, rc_lin
        )
        lay = conic._Layout(prob)
        newton = conic._Newton(
            lay, xs, x_lin, s_lin, conic._chol_inv(ss),
            (rp, (q @ rd_x).reshape(12, 12), rd_lin),
        )
        dx_psd, _, dy, ds_psd, _ = newton.direction(rc_psd, rc_lin)

        def rel(got, ref):
            return np.abs(got - ref).max() / np.abs(ref).max()

        assert rel(dy, d_y) <= 1e-8
        for b in range(len(xs)):
            assert rel(q.T @ dx_psd[b].ravel(), d_x[b]) <= 1e-8
            assert rel(q.T @ ds_psd[b].ravel(), d_s[b]) <= 1e-8


class TestKKTResiduals:
    def test_small_at_optimum(self, mercedes_benz):
        prob = build_c1(mercedes_benz)
        sol = conic.solve(prob, conic.SolverSettings(gap_tol=1e-6, feas_tol=1e-6))
        res = kkt_residuals(mercedes_benz, sol)
        for value in (res.stationarity, res.pos_complementarity,
                      res.neg_complementarity, res.normalization,
                      res.primal_feasibility, res.duality_gap):
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
        res = kkt_residuals(mercedes_benz, fake)
        assert res.normalization == pytest.approx(0.5, abs=1e-12)
        assert res.stationarity == pytest.approx(0.0, abs=1e-12)

    def test_scaled_duals_scale_normalization_affinely(self, mercedes_benz):
        prob = build_c1(mercedes_benz)
        sol = conic.solve(prob, TIGHT)
        base = kkt_residuals(mercedes_benz, sol)
        # 3 unit-norm rows, then the 3 "+q" and the 3 "-q" pair rows
        pos = np.arange(3, 6)
        neg = np.arange(6, 9)
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
            res = kkt_residuals(mercedes_benz, scaled)
            assert res.normalization == pytest.approx(abs(sol.q * (1 - t * z_sum)), abs=1e-9)
        assert base.normalization <= 1e-6

    def test_bounded_optimum_reads_bound_duals(self):
        # with 0.7 I <= X <= 1.3 I active at the optimum, the X-block dual
        # slack is -A^T y + S_W1 - S_W2: without the bound duals from
        # bound_info the stationarity product is far from zero
        fr = frames.random_gaussian_frame(4, 9, 13)
        sol = conic.solve(build_c2(fr, 1.3, 0.7), TIGHT)
        assert sol.status == conic.SolverStatus.OPTIMAL
        res = kkt_residuals(fr, sol)
        for value in (res.stationarity, res.pos_complementarity,
                      res.neg_complementarity, res.normalization):
            assert value <= 1e-5
        assert max(res.primal_feasibility, res.duality_gap) <= 10 * TIGHT.gap_tol
        bare = kkt_residuals(fr, replace(sol, bound_info={}))
        assert bare.stationarity >= 1e-3
        # without the bound terms the dual objective misses t2 tr S_W2 - t1 tr S_W1
        assert bare.duality_gap >= 1e-3

    @pytest.mark.parametrize("program", ["c1", "c2", "pinned", "diagonal"])
    def test_duality_gap_matches_solver_objectives(self, program):
        # the dual objective rebuilt from Phi and the bound blocks is the
        # solver's own b^T y + t2 tr S_W2 - t1 tr S_W1, at any iterate
        fr = frames.random_gaussian_frame(6, 16, 0)
        if program == "diagonal":
            sol = diagonal_lp(fr, conic.SolverSettings(max_iter=5)).solution
        else:
            prob = {"c1": build_c1, "c2": lambda f: build_c2(f, 2.0, 0.5),
                    "pinned": lambda f: build_c2(f, 2.0, 1.0)}[program](fr)
            sol = conic.solve(prob, conic.SolverSettings(max_iter=5))
        res = kkt_residuals(fr, sol)
        assert res.duality_gap == pytest.approx(abs(sol.q - sol.dobj) / (1.0 + abs(sol.q)), abs=1e-12)

    def test_requires_labels(self, mercedes_benz):
        # the residuals are defined for a coherence program's M^2 rows only
        sol = conic.solve(one_variable_lp(), TIGHT)
        with pytest.raises(ValueError, match="has 9 rows, got 2"):
            kkt_residuals(mercedes_benz, sol)


class TestEigenvalueBounds:
    def test_equal_bounds_pin_identity(self, sign_pattern_frame):
        prob = build_c2(sign_pattern_frame, 1.0, 1.0)
        sol = conic.solve(prob, TIGHT)
        assert sol.status == conic.SolverStatus.OPTIMAL
        assert np.abs(sol.X - np.eye(3)).max() <= 1e-12
        assert sol.q == pytest.approx(0.5, abs=1e-6)
        # end to end, the substituted X is exactly I and the unit-norm rows,
        # which X = I satisfies, carry zero multipliers
        res = solve_coherence(sign_pattern_frame, TIGHT, bounds=(1.0, 1.0))
        assert (res.X == np.eye(3)).all()
        assert res.q == pytest.approx(0.5, abs=1e-6)
        assert (res.duals["z_ii"] == 0.0).all()
        # the bound duals carry sum_k y_k A_k, so the pinned optimum is a
        # KKT point of the bounded program
        kkt = kkt_residuals(sign_pattern_frame, res.solution)
        assert kkt.stationarity <= 10 * TIGHT.gap_tol
        assert kkt.primal_feasibility <= 10 * TIGHT.gap_tol
        assert kkt.duality_gap <= 10 * TIGHT.gap_tol

    def test_pinned_solve_reports_the_nested_dropped_rows(self):
        # the bounds (2, 1) pin X = I, which leaves the 64 unit-norm rows with
        # no variable; the nested LP drops them and the caller sees them, in
        # its own row indexing, with zero multipliers
        prob = build_c2(frames.random_gaussian_frame(12, 64, 0), 2.0, 1.0)
        sol = conic.solve(prob)
        assert sol.status == conic.SolverStatus.OPTIMAL
        assert np.array_equal(sol.dropped_rows, np.arange(64))
        assert len(sol.y) == prob.n_rows and (sol.y[:64] == 0.0).all()
        assert conic.solve(build_c1(frames.random_gaussian_frame(4, 9, 13))).dropped_rows.shape == (0,)

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

    # near 1 box widths come in steps of about 2.2e-16: a nominal 1e-12 is
    # the first width above the pin threshold t1 - t2 <= 1e-12 * t1, and
    # 0.9999e-12 the last one at it
    @pytest.mark.parametrize("width", [1e-6, 1e-9, 1.5e-12, 1e-12, 0.9999e-12])
    @pytest.mark.parametrize(
        "make_frame",
        [lambda: frames.random_gaussian_frame(4, 9, 13), lambda: seeded_frame(12)],
        ids=["4x9", "12x64"],
    )
    def test_narrow_box_correct_or_flagged(self, make_frame, width):
        # boxes wider than the pin threshold stay on the interior-point path,
        # boxes at it take the pinned path; either gives a correct Optimal or
        # an explicit failure
        fr = make_frame()
        t1, t2 = 1.0 + 0.5 * width, 1.0 - 0.5 * width
        sol = conic.solve(build_c2(fr, t1, t2), TIGHT)
        assert ("pinned" in sol.bound_info) == (width < 1e-12)
        if fr.m == 4 and width == 1.5e-12:
            # just above the threshold the unit bound-dual start still steps
            assert sol.status == conic.SolverStatus.OPTIMAL
        if sol.status != conic.SolverStatus.OPTIMAL:
            assert sol.status in (conic.SolverStatus.MAX_ITER, conic.SolverStatus.NUMERICAL_FAILURE)
            return
        eig = np.linalg.eigvalsh(sol.X)
        assert eig[0] >= t2 - 1e-12 and eig[-1] <= t1 + 1e-12
        unbounded = conic.solve(build_c1(fr), TIGHT).q
        assert unbounded - 1e-7 <= sol.q <= coherence_of(fr.matrix) + 1e-7
        if width < 1e-12:
            res = solve_coherence(fr, TIGHT, bounds=(t1, t2))
            assert res.q == pytest.approx(sol.q, abs=1e-9)

    @pytest.mark.parametrize("box", [(2.0, 0.5), (1.3, 0.7)])
    def test_tight_tolerance_8x16_frames_reach_optimal(self, box):
        # at 1e-8 the bounded directions lose accuracy near the bounds; on
        # these frames the step rule still reaches the tolerance, and every
        # answer meets the KKT residual contract
        for seed in range(12):
            fr = frames.random_gaussian_frame(8, 16, seed)
            sol = conic.solve(build_c2(fr, *box), TIGHT)
            assert sol.status == conic.SolverStatus.OPTIMAL, f"seed {seed}"
            worst = max(vars(kkt_residuals(fr, sol)).values())
            assert worst <= 10 * TIGHT.gap_tol, f"seed {seed}"

    @pytest.mark.parametrize("seed", [4, 5])
    def test_near_square_frame_reaches_optimal(self, seed):
        # 24 x 32 frames at (2, 0.5) and the default settings
        fr = frames.random_gaussian_frame(24, 32, seed)
        sol = conic.solve(build_c2(fr, 2.0, 0.5))
        assert sol.status == conic.SolverStatus.OPTIMAL
        assert max(vars(kkt_residuals(fr, sol)).values()) <= 10 * conic.SolverSettings().gap_tol

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            conic.ConicProblem(psd_dim=2, rhs=np.zeros(1), eig_bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            conic.ConicProblem(psd_dim=2, rhs=np.zeros(1), eig_bounds=(np.inf, 0.5))


def simplex_etf(m):
    """m + 1 unit vectors in R^m with mutual inner products -1/m."""
    basis = np.linalg.eigh(np.eye(m + 1) - 1.0 / (m + 1))[1][:, 1:]
    return basis.T / np.sqrt(m / (m + 1))


def icosahedron_diagonals():
    """The six diagonals of the icosahedron: unit vectors in R^3 with
    mutual inner products +-1/sqrt(5)."""
    phi = 0.5 * (1.0 + np.sqrt(5.0))
    vecs = np.array([[0, 1, phi], [0, -1, phi], [1, phi, 0], [-1, phi, 0], [phi, 0, 1], [phi, 0, -1]])
    return vecs.T / np.sqrt(1.0 + phi**2)


class TestNearETFs:
    """Equiangular tight frames attain the Welch bound, so X = I is optimal
    with every pair row active at once; slightly perturbed ones are nearly
    that degenerate, on the one-block and the three-block (W1, W2) paths."""

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
    @pytest.mark.parametrize(
        "etf",
        [lambda: simplex_etf(4), lambda: simplex_etf(8), icosahedron_diagonals,
         lambda: frames.mercedes_benz_frame().matrix],
        ids=["simplex-4x5", "simplex-8x9", "icosahedron-3x6", "mercedes-benz-2x3"],
    )
    def test_perturbed_etf_reaches_optimal(self, etf, eps):
        settings = conic.SolverSettings(gap_tol=1e-7, feas_tol=1e-7)
        mat = etf()
        assert coherence_of(mat) == pytest.approx(frames.welch_bound(*mat.shape), abs=1e-12)
        mat = mat + eps * np.random.default_rng(1).standard_normal(mat.shape)
        fr = frames.Frame(mat / np.linalg.norm(mat, axis=0))
        mu = coherence_of(fr.matrix)
        for bounds in (None, (2.0, 0.5)):
            res = solve_coherence(fr, settings, bounds=bounds)
            assert res.solution.status == conic.SolverStatus.OPTIMAL, f"bounds {bounds}"
            # the solver may return a G marginally worse than the identity
            assert res.verified_coherence <= mu + 10 * settings.gap_tol, f"bounds {bounds}"


class TestDualStart:
    def test_non_interior_start_falls_back_to_generic(self):
        # y = 0 leaves the dual slacks c and 0 on the boundary, so the solver
        # starts from y = 0 with unit dual slacks instead
        prob = build_c1(frames.random_gaussian_frame(4, 9, 13))
        default = conic.solve(prob, TIGHT)
        sol = conic.solve(replace(prob, dual_start=np.zeros(prob.n_rows)), TIGHT)
        assert sol.status == conic.SolverStatus.OPTIMAL
        assert sol.q == pytest.approx(default.q, abs=TIGHT.gap_tol)

    def test_wrong_length_rejected(self):
        prob = build_c1(frames.random_gaussian_frame(4, 9, 13))
        with pytest.raises(ValueError, match="dual_start"):
            replace(prob, dual_start=np.zeros(prob.n_rows - 1))


class TestBalancedStart:
    FRAMES = [lambda: frames.random_gaussian_frame(4, 9, 13), lambda: seeded_frame(12)]

    @pytest.mark.parametrize("make_frame", FRAMES, ids=["4x9", "12x64"])
    @pytest.mark.parametrize("kind", ["c1", "diagonal-lp"])
    def test_start_is_dual_feasible_and_interior(self, make_frame, kind):
        fr = make_frame()
        big_m = fr.n_vectors
        prob = build_c1(fr) if kind == "c1" else build_diagonal_lp(fr)
        np.testing.assert_array_equal(prob.dual_start, np.full(big_m**2, -1.0 / big_m**2))
        lay = conic._Layout(prob)
        x_psd, x_lin, y, s_psd, s_lin = conic._start_state(lay)
        np.testing.assert_array_equal(y, prob.dual_start)   # taken, not the y = 0 fallback
        (_, rd_mat, rd_lin), _ = conic._measure(lay, x_psd, x_lin, y, s_psd, s_lin)
        assert np.abs(rd_lin).max() <= 1e-14
        assert (s_lin > 0).all()
        assert s_lin[0] == pytest.approx(1.0 / big_m)
        if kind == "c1":
            assert np.abs(rd_mat).max() <= 1e-14
            assert np.linalg.eigvalsh(s_psd[0]).min() > 0
            np.testing.assert_allclose(s_psd[0], fr.matrix @ fr.matrix.T / big_m**2, atol=1e-15)
        else:
            # the extras' dual slacks are ||row_l(Phi)||^2 / M^2
            np.testing.assert_allclose(s_lin[lay.ex_off :], (fr.matrix**2).sum(axis=1) / big_m**2, rtol=1e-12)

    def test_c2_keeps_unit_multipliers_on_unit_norm_rows(self):
        fr = frames.random_gaussian_frame(4, 9, 13)
        dual = build_c2(fr, 2.0, 0.5).dual_start
        np.testing.assert_array_equal(dual[:9], -1.0)
        np.testing.assert_array_equal(dual[9:], -1.0 / 81)

    def test_fewer_iterations_than_unit_multipliers(self):
        # C1 at gap_tol 1e-6 on the benchmark's first two 12 x 64 and
        # 18 x 64 frames: the start with -1 on the unit-norm rows, whose
        # X-block products dwarf the pair rows', takes about 30% more
        # iterations (72 against 55)
        settings = conic.SolverSettings(gap_tol=1e-6, feas_tol=1e-6)
        shipped = old = 0
        for m in (12, 18):
            for trial in (0, 1):
                prob = build_c1(seeded_frame(m, trial=trial))
                unit = prob.dual_start.copy()
                unit[:64] = -1.0
                shipped += conic.solve(prob, settings).iterations
                old += conic.solve(replace(prob, dual_start=unit), settings).iterations
        assert shipped <= 0.85 * old, (shipped, old)


class TestBoxMidpointStart:
    # I lies within 1e-3 (t1 - t2) of the upper bound 1.0005, so the solve
    # starts from X = (t1 + t2) / 2 I
    BOUNDS = (1.0005, 0.5)

    @pytest.mark.parametrize("make_frame", [
        lambda: seeded_frame(12),
        lambda: frames.random_gaussian_frame(8, 16, 3),
        lambda: frames.random_gaussian_frame(5, 12, 9),
    ], ids=["12x64", "8x16", "5x12"])
    def test_starts_at_the_midpoint_and_ends_in_the_box(self, make_frame):
        fr = make_frame()
        t1, t2 = self.BOUNDS
        x_psd, _ = conic._primal_start(conic._Layout(build_c2(fr, t1, t2)))
        np.testing.assert_array_equal(x_psd[0], 0.5 * (t1 + t2) * np.eye(len(fr.matrix)))
        res = solve_coherence(fr, bounds=self.BOUNDS)
        assert res.solution.status == conic.SolverStatus.OPTIMAL
        eig = np.linalg.eigvalsh(res.X)
        assert t2 - 1e-12 <= eig[0] and eig[-1] <= t1 + 1e-12


class TestStatusHandling:
    def test_max_iter_flagged(self):
        fr = frames.random_gaussian_frame(4, 10, 17)
        sol = conic.solve(build_c1(fr), conic.SolverSettings(max_iter=2))
        assert sol.status == conic.SolverStatus.MAX_ITER
        assert sol.iterations <= 2
        assert np.isfinite(sol.q)

    def test_negative_max_iter_returns_the_start(self):
        # no step is taken: the start is measured and returned, as at max_iter = 0
        prob = build_c1(frames.random_gaussian_frame(4, 10, 17))
        sol = conic.solve(prob, conic.SolverSettings(max_iter=-1))
        start = conic.solve(prob, conic.SolverSettings(max_iter=0))
        assert (sol.status, sol.iterations) == (conic.SolverStatus.MAX_ITER, 0)
        assert sol.gap == start.gap
        np.testing.assert_array_equal(sol.X, start.X)

    def test_flat_merit_stops_at_the_best_iterate(self):
        # at 1e-8 this bounded solve floors just above the tolerance; once the
        # merit has not improved for STALL_ITERS iterations the solve ends
        # MaxIter, long before max_iter, with the best-merit iterate
        fr = frames.random_gaussian_frame(12, 32, 3)
        sol = conic.solve(build_c2(fr, 2.0, 0.5), TIGHT)
        assert sol.status == conic.SolverStatus.MAX_ITER
        assert sol.iterations <= TIGHT.max_iter // 5
        assert sol.gap == sol.gap_history[sol.iterations - conic.STALL_ITERS]
        assert sol.gap < sol.gap_history[-1]
        assert sol.rel_gap <= 5 * TIGHT.gap_tol

    def test_linalg_error_ends_numerical_failure(self, monkeypatch):
        # a Newton system that cannot be factored on the third iteration ends
        # the loop there, with the best-merit iterate of the first three
        newton, calls = conic._Newton, []

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("injected")
            return newton(*args)

        monkeypatch.setattr(conic, "_Newton", failing)
        sol = conic.solve(build_c1(frames.random_gaussian_frame(4, 10, 17)), TIGHT)
        assert sol.status == conic.SolverStatus.NUMERICAL_FAILURE
        assert sol.iterations == 2 and len(sol.gap_history) == 3
        assert sol.gap == min(sol.gap_history)
        assert np.linalg.eigvalsh(sol.X).min() > 0

    def test_iterates_strictly_interior_on_return(self):
        fr = frames.random_gaussian_frame(3, 8, 19)
        sol = conic.solve(build_c1(fr), TIGHT)
        assert np.linalg.eigvalsh(sol.X).min() > 0
        assert (sol.slacks > 0).all()


class TestReportedMeasurement:
    """The gap and primal infeasibility a solution reports are those of the
    point it returns, recomputed here from the problem's fields."""

    CASES = {
        "c1": (lambda: build_c1(frames.random_gaussian_frame(4, 9, 13)), TIGHT),
        # its best iterate is not its last
        "stalled-c2": (lambda: build_c2(frames.random_gaussian_frame(12, 32, 3), 2.0, 0.5), TIGHT),
        "pinned": (lambda: build_c2(frames.random_gaussian_frame(6, 16, 0), 2.0, 1.0), TIGHT),
        "diagonal-lp": (lambda: build_diagonal_lp(frames.random_gaussian_frame(6, 16, 0)), TIGHT),
        "max-iter": (lambda: build_c1(frames.random_gaussian_frame(4, 10, 17)), conic.SolverSettings(max_iter=2)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_gap_and_primal_infeasibility(self, case):
        make, settings = self.CASES[case]
        prob = make()
        sol = conic.solve(prob, settings)
        if case == "stalled-c2":
            assert sol.gap != sol.gap_history[-1]
        info = sol.bound_info
        x_lin = np.concatenate([[sol.q], sol.slacks, sol.extras])
        gap = x_lin @ np.concatenate([[sol.q_dual], sol.slack_duals, sol.extra_duals])
        if prob.psd_dim:
            gap += np.vdot(sol.X, sol.dual_psd)
        if "upper_slack" in info:
            gap += np.vdot(info["upper_slack"], info["upper_dual"]) + np.vdot(info["lower_slack"], info["lower_dual"])
        # the row values in the solver's order of summation, so that the
        # residuals, far below the terms, come out the same
        values = prob.row_q * sol.q
        values[prob.slack_rows] += sol.slacks
        values += prob.extras @ sol.extras
        rhs = prob.rhs
        if prob.psd_dim:
            gram = prob.atoms @ sol.X @ prob.atoms.T
            psd = prob.row_alpha * gram[tuple(prob.row_atoms.T)]
            if "pinned" in info:
                # the pinned solve measures the linear program left by X = t I
                rhs = rhs - psd
            else:
                values += psd
        kept = np.delete(np.arange(prob.n_rows), sol.dropped_rows)
        p_inf = np.abs(rhs - values)[kept].max() / (1.0 + np.abs(rhs[kept]).max())
        assert gap == pytest.approx(sol.gap, rel=1e-12)
        assert p_inf == pytest.approx(sol.primal_infeas, rel=1e-12)
