import numpy as np
import pytest

from framecond import conic, experiments, frames, recovery

FAST = conic.SolverSettings(gap_tol=1e-6, feas_tol=1e-6)


class TestSeedScheme:
    def test_cells_are_independent_and_replayable(self):
        a = experiments.trial_rng(7, experiments.SIGNAL_STREAM, 4, 2, 9).standard_normal(5)
        b = experiments.trial_rng(7, experiments.SIGNAL_STREAM, 4, 2, 9).standard_normal(5)
        c = experiments.trial_rng(7, experiments.SIGNAL_STREAM, 4, 2, 10).standard_normal(5)
        assert (a == b).all()
        assert (a != c).any()

    def test_streams_do_not_collide(self):
        a = experiments.trial_rng(7, experiments.FRAME_STREAM, 4, 2, 9).standard_normal(5)
        b = experiments.trial_rng(7, experiments.SIGNAL_STREAM, 4, 2, 9).standard_normal(5)
        assert (a != b).any()

    @pytest.mark.parametrize("seed, keys", [
        (0, (0, 0, 0)),
        (3, (2**32 - 1, np.int64(5), 1)),
        (3, (2**32, 5, 1)),
        (2**40, (4, 2, 9)),
    ])
    def test_streams_match_the_list_seed_sequence(self, seed, keys):
        # keys that all fit in 32 bits reach SeedSequence as one uint32
        # array, the others as a list; both must give the list's streams
        ref = np.random.SeedSequence([seed, experiments.SIGNAL_STREAM, *map(int, keys)])
        got = experiments.trial_rng(seed, experiments.SIGNAL_STREAM, *keys)
        assert (got.bit_generator.seed_seq.pool == ref.pool).all()
        assert (got.standard_normal(6) == np.random.default_rng(ref).standard_normal(6)).all()

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            experiments.trial_rng(-1, experiments.SIGNAL_STREAM, 4, 2, 9)


class TestCoherenceTable:
    def test_deterministic(self):
        rows_a = experiments.coherence_table([3, 4], 10, 2, seed=5, settings=FAST)
        rows_b = experiments.coherence_table([3, 4], 10, 2, seed=5, settings=FAST)
        assert rows_a == rows_b

    def test_single_trial_row(self):
        (row,) = experiments.coherence_table([4], 12, 1, seed=3, settings=FAST)
        assert row.m == 4
        assert row.welch_bound == pytest.approx(frames.welch_bound(4, 12))
        assert row.mean_mu_precond <= row.mean_mu_phi + 1e-5
        assert row.failed_solves == 0

    def test_unfinished_solves_counted(self):
        (row,) = experiments.coherence_table([4], 12, 2, seed=3, settings=conic.SolverSettings(max_iter=1))
        assert row.failed_solves == 2

    def test_tight_variant_improves_over_plain(self):
        (row,) = experiments.coherence_table([6], 16, 2, seed=1, variant="g1phi", settings=FAST)
        assert row.mean_mu_precond <= row.mean_mu_phi + 1e-5

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            experiments.coherence_table([4], 12, 0, seed=0)


class TestPhaseDiagram:
    def test_sparsity_one_always_recovered(self):
        diagram = experiments.phase_diagram(12, [3, 5], trials=8, seed=2,
                                            pipeline="phi", decoder="bp", settings=FAST)
        for m in (3, 5):
            assert diagram.rate(m, 1) == 1.0

    def test_rates_well_formed(self):
        diagram = experiments.phase_diagram(10, [2, 4, 6], trials=5, seed=3,
                                            pipeline="phi", decoder="omp", settings=FAST)
        for i, m in enumerate(diagram.m_grid):
            valid = diagram.success_rate[i, :m]
            assert np.isfinite(valid).all()
            assert ((0.0 <= valid) & (valid <= 1.0)).all()
            assert np.isnan(diagram.success_rate[i, m:]).all()
        # OMP has no solver status, so no decode counts as failed
        assert diagram.failed_decodes.shape == diagram.success_rate.shape
        assert diagram.failed_decodes.dtype.kind == "i" and not diagram.failed_decodes.any()

    def test_curve_is_half_success_level(self):
        diagram = experiments.phase_diagram(10, [4], trials=10, seed=4,
                                            pipeline="phi", decoder="bp", settings=FAST)
        rates = diagram.success_rate[0, :4]
        expected = 0
        for s in range(1, 5):
            if rates[s - 1] >= 0.5:
                expected = s
        assert diagram.curve[0] == expected

    def test_deterministic(self):
        kw = dict(trials=4, seed=9, pipeline="gphi", decoder="bp", settings=FAST)
        a = experiments.phase_diagram(8, [3, 4], **kw)
        b = experiments.phase_diagram(8, [3, 4], **kw)
        assert (a.success_rate[~np.isnan(a.success_rate)] == b.success_rate[~np.isnan(b.success_rate)]).all()
        assert (a.curve == b.curve).all()

    def test_success_rate_roughly_monotone_in_sparsity(self):
        diagram = experiments.phase_diagram(16, [8], trials=50, seed=6,
                                            pipeline="phi", decoder="bp", settings=FAST)
        rates = diagram.success_rate[0, :8]
        # allow a one-trial fluctuation between neighbouring sparsities
        assert (np.diff(rates) <= 1.0 / 50 + 1e-12).all()

    def test_omp_grid_matches_per_signal_decodes(self):
        # the row-batched decode against one OMP call per signal, with the
        # signals drawn as phase_diagram draws them
        n_vectors, m_grid, trials, seed = 16, [3, 6, 9], 6, 5
        diagram = experiments.phase_diagram(n_vectors, m_grid, trials, seed, pipeline="phi", decoder="omp")
        for m in m_grid:
            frame_seed = experiments.trial_rng(seed, experiments.FRAME_STREAM, m, 0, 0).integers(2**63)
            frame = frames.random_gaussian_frame(m, n_vectors, int(frame_seed))
            for s in range(1, m + 1):
                wins = 0
                for trial in range(trials):
                    rng = experiments.trial_rng(seed, experiments.SIGNAL_STREAM, m, s, trial)
                    support = rng.choice(n_vectors, size=s, replace=False)
                    x = np.zeros(n_vectors)
                    x[support] = rng.standard_normal(s)
                    rec = recovery.omp(frame, frame.matrix @ x, s)
                    wins += np.linalg.norm(rec.estimate - x) / np.linalg.norm(x) <= experiments.SUCCESS_TOL
                assert diagram.rate(m, s) == wins / trials, (m, s)
        rates = diagram.success_rate
        assert ((0.0 < rates) & (rates < 1.0)).any()   # the grid is not all hits or misses

    def test_bp_grid_matches_per_signal_decodes(self):
        # the row-batched decode and array scoring against one basis-pursuit
        # solve per signal, with the signals drawn as phase_diagram draws them
        n_vectors, m_grid, trials, seed = 12, [4, 8], 4, 0
        diagram = experiments.phase_diagram(n_vectors, m_grid, trials, seed, pipeline="phi", decoder="bp")
        for m in m_grid:
            frame_seed = experiments.trial_rng(seed, experiments.FRAME_STREAM, m, 0, 0).integers(2**63)
            a = frames.random_gaussian_frame(m, n_vectors, int(frame_seed)).matrix
            for s in range(1, m + 1):
                wins = 0
                for trial in range(trials):
                    rng = experiments.trial_rng(seed, experiments.SIGNAL_STREAM, m, s, trial)
                    support = rng.choice(n_vectors, size=s, replace=False)
                    x = np.zeros(n_vectors)
                    x[support] = rng.standard_normal(s)
                    rec = recovery.basis_pursuit(a, a @ x)
                    wins += np.linalg.norm(rec.estimate - x) / np.linalg.norm(x) <= experiments.SUCCESS_TOL
                assert diagram.rate(m, s) == wins / trials, (m, s)
        rates = diagram.success_rate
        assert ((0.0 < rates) & (rates < 1.0)).any()   # the grid is not all hits or misses

    def test_bp_grid_invariant_under_preconditioning(self):
        # premultiplying a x = y by a nonsingular G leaves the basis-pursuit
        # minimizer unchanged, so both preconditioned pipelines recover
        # exactly the cells the plain one does
        grids = {p: experiments.phase_diagram(16, range(2, 16), 10, 0, pipeline=p, decoder="bp").success_rate
                 for p in ("phi", "gphi", "g1phi")}
        assert np.array_equal(grids["gphi"], grids["phi"], equal_nan=True)
        assert np.array_equal(grids["g1phi"], grids["phi"], equal_nan=True)

    def test_settings_reach_basis_pursuit(self):
        # one interior-point iteration decodes nothing, so every rate is zero
        # when the caller's settings reach the basis-pursuit solves
        diagram = experiments.phase_diagram(8, [4], trials=3, seed=0, pipeline="phi", decoder="bp",
                                            settings=conic.SolverSettings(max_iter=1))
        assert (diagram.success_rate[0, :4] == 0.0).all()
        assert (diagram.failed_decodes[0, :4] == 3).all()   # each one MaxIter

    def test_stalled_decode_is_reported(self, monkeypatch):
        # at basis_pursuit's 1e-9 default the (s = 7, trial 7) LP of this
        # 11 x 16 preconditioned row floors its primal residual above the
        # tolerance: it must come back MaxIter and be counted, not be
        # returned as Optimal or dropped
        decoded = []
        decode = recovery.basis_pursuit

        def spy(a, ys, settings=None):
            results = decode(a, ys, settings)
            decoded.extend(zip(ys, results))
            return results

        monkeypatch.setattr(recovery, "basis_pursuit", spy)
        diagram = experiments.phase_diagram(16, [11], trials=8, seed=1, pipeline="gphi", decoder="bp")
        stalled = 6 * 8 + 7   # s = 7, trial 7 in (s, trial) order
        statuses = [rec.status for _, rec in decoded]
        assert statuses[stalled] == conic.SolverStatus.MAX_ITER
        assert statuses.count(conic.SolverStatus.OPTIMAL) == len(statuses) - 1
        y, rec = decoded[stalled]
        assert rec.residual_norm <= 1e-6 * np.linalg.norm(y)
        expected = np.zeros((1, 11), dtype=int)
        expected[0, 6] = 1
        assert (diagram.failed_decodes == expected).all()

    def test_pipelines_share_frames(self):
        # identical seeds draw identical frames, so the s = 1 column agrees
        a = experiments.phase_diagram(8, [3], trials=5, seed=11, pipeline="phi",
                                      decoder="bp", settings=FAST)
        b = experiments.phase_diagram(8, [3], trials=5, seed=11, pipeline="gphi",
                                      decoder="bp", settings=FAST)
        assert a.rate(3, 1) == b.rate(3, 1) == 1.0


class TestConditionSweep:
    def test_unit_bounds_pin_initial_coherence(self):
        fr = frames.random_gaussian_frame(6, 12, 7)
        record = experiments.condition_sweep(fr, 1.0, [1.0, 1.5], FAST)
        mu = frames.coherence(fr)
        assert record.coherence[0] == pytest.approx(mu, abs=1e-5)
        assert record.condition_number[0] == pytest.approx(1.0, abs=1e-6)
        assert record.statuses == [conic.SolverStatus.OPTIMAL] * 2

    def test_statuses_flag_unfinished_solves(self):
        # the pinned point (t1 = 1) and the bounded one both stop at max_iter
        fr = frames.random_gaussian_frame(6, 12, 7)
        record = experiments.condition_sweep(fr, 0.5, [1.0, 2.0], conic.SolverSettings(max_iter=1))
        assert record.statuses == [conic.SolverStatus.MAX_ITER] * 2

    def test_monotone_decrease_with_relaxed_floor(self):
        fr = frames.random_gaussian_frame(6, 12, 7)
        record = experiments.condition_sweep(fr, 0.25, [1.0, 2.0, 4.0], FAST)
        arr = np.array(record.coherence)
        assert (np.diff(arr) <= 2e-6).all()
        assert (np.array(record.condition_number) <= np.sqrt(np.array([1.0, 2.0, 4.0]) / 0.25) + 1e-3).all()

    def test_grid_validation(self):
        fr = frames.random_gaussian_frame(3, 6, 1)
        with pytest.raises(ValueError):
            experiments.condition_sweep(fr, 0.5, [2.0, 1.0])
        with pytest.raises(ValueError):
            experiments.condition_sweep(fr, 0.5, [0.25])
