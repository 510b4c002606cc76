import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pytest import approx

import corrsense.accuracy as accuracy_module
from corrsense import (BetaFactors, Cluster, ClusterAssignment, ClusterGeometry,
                       CorrelationParams, EstimateSet, FieldSpec,
                       MissingTracingPointError, NodeKind, NoiseModel, Position,
                       ReadingSample, UnknownNodeError, accuracy_for_assignment,
                       assign_clusters, assign_tracing_points, beta_factors,
                       build_grid_deployment, circle_cluster,
                       closed_form_accuracy, Deployment, empirical_correlation,
                       estimate, geometry_from_points, monte_carlo_accuracy,
                       place_nodes, reports_to_csv, reports_to_json,
                       simulate_reading)
from corrsense.accuracy import (_MC_CHUNK, _PAIR_BLOCK, _closed_form_batch,
                                _fold_moments)

P50 = CorrelationParams(50.0, 1.0, 0.6)
P400 = CorrelationParams(400.0, 1.0, 0.6)

CORNER_GEOMETRY = geometry_from_points(
    Position(15, 15), Position(0, 0),
    [Position(30, 0), Position(0, 30), Position(30, 30)])


def oracle_d_a(tracing, head, members, beta, beta_ch, params, sigma_s2=1.0):
    """Independent accuracy computation via the covariance quadratic form.

    The averaged estimator is w @ G with G the noisy node observations;
    distortion is sigma_s2 - 2 w.c + w.C.w with C the observation
    covariance and c the tracing-point cross-covariance. Noise variances
    are the ones implied by the beta factors.
    """
    pts = np.array([[p.x, p.y] for p in list(members) + [head]])
    s = np.array([tracing.x, tracing.y])
    m = len(pts)

    def k(d):
        return math.exp(-((d / params.theta1) ** params.theta2))

    c = np.array([sigma_s2 * k(np.linalg.norm(s - p)) for p in pts])
    cov = np.array([[sigma_s2 * k(np.linalg.norm(pi - pj)) for pj in pts]
                    for pi in pts])
    betas = np.array([beta] * (m - 1) + [beta_ch])
    cov = cov + np.diag(sigma_s2 * (1.0 / betas - 1.0))
    w = betas / m
    distortion = sigma_s2 - 2.0 * w @ c + w @ cov @ w
    return 1.0 - distortion / sigma_s2


def reference_closed_form_d_a(tracing, head, members, betas, params):
    """The scalar closed form the batched one replaced, kept as its reference:
    one cluster at a time, np.linalg.norm distances, whole-array sums."""
    s, h = np.asarray(tracing, float), np.asarray(head, float)
    mem = np.asarray(members, float).reshape(-1, 2)
    m = len(mem) + 1

    def k(d):
        return np.exp(-((d / params.theta1) ** params.theta2))

    k_s = k(np.linalg.norm(mem - s, axis=1))
    k_sc = float(k(np.linalg.norm(h - s)))
    k_c = k(np.linalg.norm(mem - h, axis=1))
    k_p = k(np.linalg.norm(mem[:, None, :] - mem[None, :, :], axis=2))
    beta, beta_ch = betas.beta, betas.beta_ch
    cross = (2.0 / m) * (beta * float(np.sum(k_s)) + beta_ch * k_sc)
    pair_sum = float(np.sum(k_p)) - (m - 1)
    second = (beta ** 2 * pair_sum + (m - 1) * beta
              + 2.0 * beta * beta_ch * float(np.sum(k_c)) + beta_ch) / m ** 2
    return cross - second


def random_geometry(rng, max_members=9, box=30.0):
    m = int(rng.integers(1, max_members + 2))
    pts = rng.uniform(0.0, box, size=(m, 2))
    tracing = Position(*rng.uniform(0.0, box, size=2))
    head = Position(*pts[-1])
    members = [Position(*p) for p in pts[:-1]]
    return tracing, head, members


class TestBetaFactors:
    def test_noiseless_betas_are_one(self):
        b = beta_factors(NoiseModel.noiseless())
        assert b.beta == 1.0 and b.beta_ch == 1.0

    def test_half(self):
        b = beta_factors(NoiseModel(sigma_s2=1.0, sigma_n2=0.5, sigma_nt2=0.5))
        assert b.beta == approx(0.5)

    def test_default_profile(self):
        b = beta_factors(NoiseModel.default_profile())
        assert b.beta == approx(1.0 / 1.12, abs=1e-15)
        assert b.beta_ch == approx(1.0 / 1.06, abs=1e-15)
        assert b.beta == approx(0.8929, abs=1e-4)
        assert b.beta_ch == approx(0.9434, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            BetaFactors(0.0, 0.5)
        with pytest.raises(ValueError):
            BetaFactors(0.5, 1.5)
        with pytest.raises(ValueError):
            NoiseModel(sigma_s2=0.0)
        with pytest.raises(ValueError):
            NoiseModel(sigma_n2=-0.1)

    @pytest.mark.parametrize("name", ["sigma_s2", "sigma_n2", "sigma_nt2",
                                      "sigma_nch2", "power"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            NoiseModel(**{name: value})

    def test_from_betas_round_trip(self):
        noise = NoiseModel.from_betas(0.7, 0.85)
        b = beta_factors(noise)
        assert b.beta == approx(0.7, abs=1e-12)
        assert b.beta_ch == approx(0.85, abs=1e-12)

    def test_alpha_scaling(self):
        noise = NoiseModel(sigma_s2=1.0, sigma_n2=0.06, sigma_nt2=0.06, power=4.0)
        assert noise.alpha == approx(math.sqrt(4.0 / 1.12))


class TestSimulateReading:
    def test_head_on_tracing_point_is_bit_exact(self):
        geo = geometry_from_points(Position(5, 5), Position(5, 5), [])
        rng = np.random.default_rng(0)
        sample = simulate_reading(geo, NoiseModel.noiseless(), P50, rng, n=100)
        assert np.array_equal(sample.s, sample.s_head)
        assert np.array_equal(sample.x_head, sample.s)

    def test_duplicated_member_positions_succeed(self):
        geo = geometry_from_points(Position(0, 0), Position(10, 0),
                                   [Position(3, 4), Position(3, 4)])
        rng = np.random.default_rng(0)
        sample = simulate_reading(geo, NoiseModel.noiseless(), P50, rng, n=10)
        assert np.all(np.isfinite(sample.s_members))

    def test_chain_identities(self):
        geo = circle_cluster(5, 7.0)
        noise = NoiseModel.default_profile()
        sample = simulate_reading(geo, noise, P50, np.random.default_rng(3), n=50)
        assert np.array_equal(sample.x_members,
                              sample.s_members + sample.noise_members)
        assert np.array_equal(sample.y_members,
                              sample.x_members + sample.tnoise_members)
        assert np.array_equal(sample.z_members, noise.alpha * sample.y_members)
        assert sample.m == 5

    def test_sampled_correlation_matches_kernel(self):
        # member at distance theta1 from the tracing point: corr should be 1/e
        geo = geometry_from_points(Position(0, 0), Position(0, 1),
                                   [Position(50, 0)])
        n = 100_000
        sample = simulate_reading(geo, NoiseModel.noiseless(), P50,
                                  np.random.default_rng(11), n=n)
        rho = empirical_correlation(sample.s, sample.s_members[0]).pearson
        target = math.exp(-1.0)
        se = (1.0 - target ** 2) / math.sqrt(n)
        assert abs(rho - target) <= 3.0 * se

    def test_determinism_per_seed(self):
        geo = circle_cluster(4, 5.0)
        noise = NoiseModel.default_profile()
        a = simulate_reading(geo, noise, P50, np.random.default_rng(42), n=10)
        b = simulate_reading(geo, noise, P50, np.random.default_rng(42), n=10)
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.z_members, b.z_members)

    def test_inconsistent_distances_rejected(self):
        from corrsense import ClusterGeometry, NotPositiveDefiniteError
        # triangle-violating bundle: members far apart yet both on the head
        geo = ClusterGeometry(
            head_id=0, member_ids=(1, 2),
            tracing_to_members=np.array([1.0, 1.0]), tracing_to_head=1.0,
            head_to_members=np.array([0.0, 0.0]),
            member_distances=np.array([[0.0, 200.0], [200.0, 0.0]]))
        with pytest.raises(NotPositiveDefiniteError):
            simulate_reading(geo, NoiseModel.noiseless(), P50,
                             np.random.default_rng(0))


class TestEstimate:
    def test_noiseless_recovers_phenomena_exactly(self):
        geo = circle_cluster(4, 5.0)
        noise = NoiseModel.noiseless()
        sample = simulate_reading(geo, noise, P50, np.random.default_rng(1), n=20)
        est = estimate(sample, beta_factors(noise), noise)
        assert np.array_equal(est.s_hat_members, sample.s_members)
        assert np.array_equal(est.s_hat_head, sample.s_head)

    def test_m_one_average_is_head_estimate(self):
        geo = geometry_from_points(Position(0, 0), Position(3, 4), [])
        noise = NoiseModel.default_profile()
        sample = simulate_reading(geo, noise, P50, np.random.default_rng(1), n=20)
        est = estimate(sample, beta_factors(noise), noise)
        assert np.array_equal(est.s_hat, est.s_hat_head)

    def test_half_beta_halves_the_observation(self):
        noise = NoiseModel.from_betas(0.5, 1.0)
        y = np.array([[2.0]])
        sample = ReadingSample(
            s=np.array([0.0]), s_members=np.array([[2.0]]),
            s_head=np.array([0.0]), noise_members=np.zeros((1, 1)),
            tnoise_members=np.zeros((1, 1)), noise_head=np.zeros(1),
            x_members=y, y_members=y, z_members=noise.alpha * y,
            x_head=np.array([0.0]))
        est = estimate(sample, BetaFactors(0.5, 1.0), noise)
        assert est.s_hat_members[0, 0] == approx(1.0, abs=1e-12)

    def test_average_identity(self):
        geo = circle_cluster(6, 5.0)
        noise = NoiseModel.default_profile()
        sample = simulate_reading(geo, noise, P50, np.random.default_rng(5), n=30)
        est = estimate(sample, beta_factors(noise), noise)
        expected = (est.s_hat_members.sum(axis=0) + est.s_hat_head) / sample.m
        assert np.array_equal(est.s_hat, expected)


class TestClosedForm:
    def test_perfect_single_node(self):
        geo = geometry_from_points(Position(2, 3), Position(2, 3), [])
        rep = closed_form_accuracy(geo, BetaFactors(1.0, 1.0), P50)
        assert rep.d_a == 1.0
        assert rep.distortion == 0.0

    def test_far_head_approaches_minus_beta_ch(self):
        geo = geometry_from_points(Position(0, 0), Position(1e9, 0), [])
        betas = beta_factors(NoiseModel.default_profile())
        rep = closed_form_accuracy(geo, betas, P50)
        assert rep.d_a == approx(-betas.beta_ch, abs=1e-12)

    def test_grid_corner_anchors_noiseless(self):
        b = BetaFactors(1.0, 1.0)
        d50 = closed_form_accuracy(CORNER_GEOMETRY, b, P50).d_a
        d400 = closed_form_accuracy(CORNER_GEOMETRY, b, P400).d_a
        assert d50 == approx(0.677, abs=1e-3)
        assert d400 == approx(0.958, abs=1e-3)
        # pinned against the independent quadratic-form oracle
        assert d50 == approx(oracle_d_a(Position(15, 15), Position(0, 0),
                                        CORNER_GEOMETRY_MEMBERS, 1.0, 1.0, P50),
                             abs=1e-12)

    def test_grid_corner_anchors_default_noise(self):
        b = beta_factors(NoiseModel.default_profile())
        d50 = closed_form_accuracy(CORNER_GEOMETRY, b, P50).d_a
        d400 = closed_form_accuracy(CORNER_GEOMETRY, b, P400).d_a
        assert d50 == approx(0.6333, abs=0.05)
        assert d400 == approx(0.911, abs=0.05)

    def test_matches_quadratic_form_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            tracing, head, members = random_geometry(rng)
            beta = float(rng.uniform(0.6, 1.0))
            beta_ch = float(rng.uniform(0.6, 1.0))
            params = CorrelationParams(float(rng.choice([50.0, 100.0, 400.0])),
                                       float(rng.choice([0.5, 1.0, 2.0])), 0.6)
            geo = geometry_from_points(tracing, head, members)
            got = closed_form_accuracy(geo, BetaFactors(beta, beta_ch), params)
            want = oracle_d_a(tracing, head, members, beta, beta_ch, params)
            assert got.d_a == approx(want, abs=1e-10)

    def test_identity_chain(self):
        geo = circle_cluster(4, 5.0)
        rep = closed_form_accuracy(geo, beta_factors(NoiseModel.default_profile()),
                                   P50, sigma_s2=2.5)
        assert rep.d_a == approx(1.0 - rep.distortion / rep.sigma_s2, abs=1e-12)

    def test_bounded_above_by_one(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            tracing, head, members = random_geometry(rng)
            betas = BetaFactors(float(rng.uniform(0.5, 1.0)),
                                float(rng.uniform(0.5, 1.0)))
            geo = geometry_from_points(tracing, head, members)
            assert closed_form_accuracy(geo, betas, P50).d_a <= 1.0 + 1e-12

    def test_strictly_decreasing_in_circle_radius(self):
        betas = beta_factors(NoiseModel.default_profile())
        for params in (P50, CorrelationParams(100.0, 1.0, 0.6)):
            das = [closed_form_accuracy(circle_cluster(4, r), betas, params).d_a
                   for r in (1, 2, 5, 10, 20, 30, 40, 50)]
            assert all(a > b for a, b in zip(das, das[1:]))

    def test_nondecreasing_in_theta1(self):
        rng = np.random.default_rng(31)
        betas = beta_factors(NoiseModel.default_profile())
        ladder = [50.0, 100.0, 200.0, 400.0]
        for _ in range(50):
            tracing, head, members = random_geometry(rng)
            geo = geometry_from_points(tracing, head, members)
            das = [closed_form_accuracy(
                geo, betas, CorrelationParams(t, 1.0, 0.6)).d_a for t in ladder]
            assert all(b >= a - 1e-12 for a, b in zip(das, das[1:]))


    def test_rejects_negative_distance(self):
        geo = ClusterGeometry(
            head_id=0, member_ids=(1,), tracing_to_members=np.array([-1.0]),
            tracing_to_head=1.0, head_to_members=np.array([1.0]),
            member_distances=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="nonnegative"):
            closed_form_accuracy(geo, BetaFactors(1.0, 1.0), P50)


CORNER_GEOMETRY_MEMBERS = [Position(30, 0), Position(0, 30), Position(30, 30)]


def check_batch_against_reference(seed, n, m, box, theta1s, theta2, betas):
    rng = np.random.default_rng(seed)
    tracing = rng.uniform(0.0, box, (n, 2))
    head = rng.uniform(0.0, box, (n, 2))
    members = rng.uniform(0.0, box, (n, m - 1, 2))
    params = [CorrelationParams(t, theta2, 0.6) for t in theta1s]
    got = _closed_form_batch(tracing, head, members, betas, params)
    assert got.shape == (n, len(params))
    for i in range(n):
        for j, p in enumerate(params):
            want = reference_closed_form_d_a(tracing[i], head[i], members[i],
                                             betas, p)
            assert got[i, j] == approx(want, abs=1e-12)


BATCH_BETAS = st.builds(BetaFactors, st.floats(0.05, 1.0), st.floats(0.05, 1.0))
THETA1S = st.lists(st.sampled_from([10.0, 50.0, 100.0, 400.0]),
                   min_size=1, max_size=4)


class TestBatchedClosedForm:
    """_closed_form_batch against the scalar reference, to 1e-12."""

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4),
           m=st.integers(1, 120), box=st.sampled_from([1.0, 30.0, 500.0]),
           theta1s=THETA1S, theta2=st.floats(0.1, 2.0), betas=BATCH_BETAS)
    @example(seed=0, n=3, m=1, box=30.0, theta1s=[50.0, 400.0], theta2=1.0,
             betas=BetaFactors(0.9, 0.8))
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_reference(self, seed, n, m, box, theta1s, theta2,
                                      betas):
        check_batch_against_reference(seed, n, m, box, theta1s, theta2, betas)

    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(40, 120),
           extra=st.integers(1, 5), theta1s=THETA1S,
           theta2=st.sampled_from([0.5, 1.0, 2.0]), betas=BATCH_BETAS)
    @settings(max_examples=15, deadline=None)
    def test_batch_crosses_pair_blocks(self, seed, m, extra, theta1s, theta2,
                                       betas):
        per_block = _PAIR_BLOCK // (m - 1) ** 2
        check_batch_against_reference(seed, per_block + extra, m, 30.0,
                                      theta1s, theta2, betas)

    def test_memory_bounded_by_pair_block(self):
        n, m = 300, 100
        rng = np.random.default_rng(5)
        coords = (rng.uniform(0.0, 30.0, (n, 2)), rng.uniform(0.0, 30.0, (n, 2)),
                  rng.uniform(0.0, 30.0, (n, m - 1, 2)))
        tracemalloc.start()
        try:
            _closed_form_batch(*coords, BetaFactors(0.9, 0.9), [P50, P400])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 5 pair-block arrays are live at once (measured 1.1-1.5 MB);
        # all 300 x 99^2 pairs at once would take 24 MB per array
        assert peak < 16 * 8 * _PAIR_BLOCK, f"{peak / 2 ** 20:.1f} MB"

    def test_closed_form_accuracy_is_a_batch_of_one(self):
        rng = np.random.default_rng(12)
        betas = beta_factors(NoiseModel.default_profile())
        for m in (1, 2, 7, 40):
            s, h = rng.uniform(0.0, 30.0, (2, 2))
            members = rng.uniform(0.0, 30.0, (m - 1, 2))
            geo = geometry_from_points(Position(*s), Position(*h),
                                       [Position(*p) for p in members])
            batch = _closed_form_batch(s[None], h[None], members[None], betas,
                                       [P50, P400])
            assert [closed_form_accuracy(geo, betas, p).d_a
                    for p in (P50, P400)] == batch[0].tolist()


class TestMonteCarlo:
    def test_perfect_single_node_exact(self):
        geo = geometry_from_points(Position(2, 3), Position(2, 3), [])
        noise = NoiseModel.noiseless()
        rep = monte_carlo_accuracy(geo, beta_factors(noise), noise, P50,
                                   samples=100_000, seed=1)
        assert rep.d_a == 1.0
        assert rep.distortion == 0.0
        assert rep.mc_std_error == 0.0

    def test_agrees_with_closed_form_on_circle(self):
        geo = circle_cluster(4, 5.0)
        noise = NoiseModel.noiseless()
        betas = beta_factors(noise)
        cf = closed_form_accuracy(geo, betas, P50)
        mc = monte_carlo_accuracy(geo, betas, noise, P50, samples=100_000, seed=8)
        assert abs(mc.d_a - cf.d_a) <= 3.0 * mc.mc_std_error

    def test_agrees_on_random_geometries(self):
        rng = np.random.default_rng(77)
        hits = 0
        for i in range(5):
            tracing, head, members = random_geometry(rng)
            beta = float(rng.choice([0.7, 0.85, 1.0]))
            noise = NoiseModel.from_betas(beta, beta)
            geo = geometry_from_points(tracing, head, members)
            betas = beta_factors(noise)
            cf = closed_form_accuracy(geo, betas, P50)
            mc = monte_carlo_accuracy(geo, betas, noise, P50,
                                      samples=100_000, seed=100 + i)
            if abs(mc.d_a - cf.d_a) <= 3.0 * mc.mc_std_error:
                hits += 1
        assert hits >= 4

    def test_deterministic_per_seed(self):
        geo = circle_cluster(4, 5.0)
        noise = NoiseModel.default_profile()
        betas = beta_factors(noise)
        a = monte_carlo_accuracy(geo, betas, noise, P50, samples=10_000,
                                 seed=5)
        b = monte_carlo_accuracy(geo, betas, noise, P50, samples=10_000,
                                 seed=5)
        assert a == b

    @pytest.mark.parametrize("samples", [100, _MC_CHUNK - 1, _MC_CHUNK,
                                         _MC_CHUNK + 1, 3 * _MC_CHUNK + 7])
    def test_chunk_edges(self, samples):
        geo = circle_cluster(4, 5.0)
        noise = NoiseModel.default_profile()
        betas = beta_factors(noise)
        a = monte_carlo_accuracy(geo, betas, noise, P50, samples=samples,
                                 seed=9)
        assert a.mc_samples == samples
        assert math.isfinite(a.d_a) and math.isfinite(a.mc_std_error)
        assert a == monte_carlo_accuracy(geo, betas, noise, P50,
                                         samples=samples, seed=9)

    def test_matches_simulate_reading_per_chunk(self):
        # the chunk loop as it was before the factor moved out of it
        geo = circle_cluster(5, 6.0)
        noise = NoiseModel.default_profile()
        betas = beta_factors(noise)
        samples = 2 * _MC_CHUNK + 11
        moments = (0, 0.0, 0.0)
        for i, start in enumerate(range(0, samples, _MC_CHUNK)):
            rng = np.random.default_rng(np.random.SeedSequence((9, i)))
            sample = simulate_reading(geo, noise, P50, rng,
                                      n=min(_MC_CHUNK, samples - start))
            moments = _fold_moments(moments, np.square(
                sample.s - estimate(sample, betas, noise).s_hat))
        rep = monte_carlo_accuracy(geo, betas, noise, P50, samples=samples,
                                   seed=9)
        assert rep.distortion == moments[1]
        assert rep.mc_std_error == math.sqrt(moments[2] / samples ** 2)

    def test_factors_covariance_once(self, monkeypatch):
        calls = []
        kernel = accuracy_module.kernel
        monkeypatch.setattr(accuracy_module, "kernel",
                            lambda d, p: calls.append(1) or kernel(d, p))
        noise = NoiseModel.default_profile()
        monte_carlo_accuracy(circle_cluster(4, 5.0), beta_factors(noise),
                             noise, P50, samples=3 * _MC_CHUNK, seed=4)
        assert len(calls) == 2  # node block and tracing-point column

    def test_fold_moments_matches_numpy_on_offset_data(self):
        # Small spread on a large mean: E[x^2] - E[x]^2 keeps no digit here.
        rng = np.random.default_rng(3)
        data = 1e6 + 1e-3 * rng.standard_normal(10_000)
        moments = (0, 0.0, 0.0)
        for chunk in np.array_split(data, [1, 700, 4096, 4097, 9000]):
            moments = _fold_moments(moments, chunk)
        n, mean, m2 = moments
        assert n == data.size
        assert mean == approx(np.mean(data), rel=1e-15)
        assert m2 / n == approx(np.var(data), rel=1e-9)
        naive = np.mean(data ** 2) - np.mean(data) ** 2
        assert naive != approx(np.var(data), rel=0.1)

    def test_memory_does_not_grow_with_samples(self):
        geo = circle_cluster(16, 5.0)
        noise = NoiseModel.default_profile()
        betas = beta_factors(noise)
        ceiling = 48 * 2 ** 20
        for samples in (2 ** 17, 2 ** 20):
            tracemalloc.start()
            try:
                monte_carlo_accuracy(geo, betas, noise, P50, samples=samples,
                                     seed=6)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < ceiling, f"{peak / 2 ** 20:.1f} MB at {samples}"

    def test_identity_chain(self):
        geo = circle_cluster(3, 5.0)
        noise = NoiseModel.default_profile()
        rep = monte_carlo_accuracy(geo, beta_factors(noise), noise, P50,
                                   samples=5_000, seed=2)
        assert rep.d_a == approx(1.0 - rep.distortion / rep.sigma_s2, abs=1e-12)

    def test_rejects_tiny_sample_budget(self):
        geo = circle_cluster(3, 5.0)
        noise = NoiseModel.default_profile()
        with pytest.raises(ValueError):
            monte_carlo_accuracy(geo, beta_factors(noise), noise, P50,
                                 samples=10, seed=1)

    def test_mmse_scaling_is_optimal(self):
        # rescaling the per-member estimate cannot reduce its distortion
        geo = geometry_from_points(Position(0, 0), Position(0, 8), [Position(10, 0)])
        noise = NoiseModel.default_profile()
        betas = beta_factors(noise)
        sample = simulate_reading(geo, noise, P50,
                                  np.random.default_rng(13), n=100_000)
        est = estimate(sample, betas, noise)
        base = float(np.mean((sample.s_members[0] - est.s_hat_members[0]) ** 2))
        for gamma in (0.8, 0.9, 1.1, 1.2):
            scaled = float(np.mean(
                (sample.s_members[0] - gamma * est.s_hat_members[0]) ** 2))
            assert scaled >= base


class TestAccuracyForAssignment:
    def test_canonical_deployment_shape(self):
        dep = build_grid_deployment(FieldSpec(120, 120), 5, 5, 100, seed=7)
        assignment = assign_clusters(dep)
        noise = NoiseModel.default_profile()
        reports = accuracy_for_assignment(
            assignment, dep, dep.tracing_points, beta_factors(noise),
            CorrelationParams(100.0, 1.0, 0.6))
        assert len(reports) == 25
        assert [r.head_id for r in reports] == list(range(1, 26))
        assert sum(r.m - 1 for r in reports) == 100

    def test_heads_on_tracing_points_noiseless_perfect(self):
        field = FieldSpec(120, 120)
        dep = Deployment(
            field=field,
            heads=place_nodes(field, [(NodeKind.CLUSTER_HEAD, (10.0 * i, 10.0 * i))
                                      for i in range(1, 4)]),
            normals=())
        points = assign_tracing_points(
            dep, positions=[(10.0 * i, 10.0 * i) for i in range(1, 4)])
        noise = NoiseModel.noiseless()
        for method in ("closed_form", "monte_carlo"):
            reports = accuracy_for_assignment(
                assign_clusters(dep), dep, points, beta_factors(noise), P50,
                method=method, noise=noise, samples=1000, seed=3)
            assert all(r.d_a == 1.0 for r in reports)

    @pytest.mark.parametrize("method", ["closed_form", "monte_carlo"])
    def test_unknown_node(self, method):
        dep = build_grid_deployment(FieldSpec(120, 120), 2, 2, 5, seed=7)
        bad = ClusterAssignment((Cluster(head_id=1, members=(99,)),))
        noise = NoiseModel.default_profile()
        with pytest.raises(UnknownNodeError):
            accuracy_for_assignment(bad, dep, dep.tracing_points,
                                    beta_factors(noise), P50, method=method,
                                    noise=noise, samples=100)

    def test_missing_tracing_point(self):
        dep = build_grid_deployment(FieldSpec(120, 120), 5, 5, 10, seed=7)
        with pytest.raises(MissingTracingPointError):
            accuracy_for_assignment(
                assign_clusters(dep), dep, dep.tracing_points[:-1],
                beta_factors(NoiseModel.default_profile()),
                CorrelationParams(100.0, 1.0, 0.6))


class TestReportSerialization:
    def test_csv_columns(self):
        geo = circle_cluster(4, 5.0)
        noise = NoiseModel.default_profile()
        betas = beta_factors(noise)
        cf = closed_form_accuracy(geo, betas, P50)
        mc = monte_carlo_accuracy(geo, betas, noise, P50, samples=1000, seed=1)
        lines = reports_to_csv([cf, mc]).splitlines()
        assert lines[0] == "head_id,m,method,d_a,distortion,std_err,samples"
        assert lines[1].startswith("0,4,closed_form,") and lines[1].endswith(",,")
        assert lines[2].startswith("0,4,monte_carlo,")
        assert lines[2].endswith(",1000")

    def test_json_echoes_parameters(self):
        import json
        geo = circle_cluster(4, 5.0)
        noise = NoiseModel.default_profile()
        rep = closed_form_accuracy(geo, beta_factors(noise), P50)
        payload = json.loads(reports_to_json([rep], P50, noise, seed=7))
        assert payload["params"]["theta1"] == 50.0
        assert payload["params"]["log_base"] == "e"
        assert payload["noise"]["sigma_n2"] == 0.06
        assert payload["seed"] == 7
        assert payload["reports"][0]["method"] == "closed_form"
