import numpy as np
import pytest

from modroute.routing import route_balance_temperatures
from routing_oracles import effective_modules, mask_softmax, sample_k_mask, topk_mask


class TestTopkMask:
    def test_direct_top2(self):
        np.testing.assert_array_equal(topk_mask([0.5, 0.2, 0.9], 2), [1, 0, 1])

    def test_tie_breaks_to_lowest_index(self):
        np.testing.assert_array_equal(topk_mask([1.0, 1.0, 1.0], 2), [1, 1, 0])

    def test_short_vector_all_selected(self):
        np.testing.assert_array_equal(topk_mask([0.3], 2), [1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            topk_mask([], 1)


class TestSampleKMask:
    def test_forced_inclusion(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            np.testing.assert_array_equal(
                sample_k_mask([0.1, -0.3], 3, 1.0, rng), [1, 1]
            )

    def test_symmetric_frequencies(self):
        rng = np.random.default_rng(1)
        draws = 100_000
        hits = sum(sample_k_mask([0.0, 0.0], 1, 1.0, rng)[0] for _ in range(draws))
        sigma = np.sqrt(draws * 0.25)
        assert abs(hits - draws * 0.5) < 3 * sigma

    def test_low_temperature_matches_topk(self):
        rng = np.random.default_rng(2)
        z = np.array([0.0, 0.35, 0.1, 0.6, -0.2])
        expected = topk_mask(z, 2)
        agree = sum(
            np.array_equal(sample_k_mask(z, 2, 1e-6, rng), expected)
            for _ in range(10_000)
        )
        assert agree >= 9990

    def test_first_draw_marginals(self):
        # marginal P(first draw = j) should equal softmax(z / tau)
        rng = np.random.default_rng(3)
        z = np.array([0.4, -0.1, 0.9])
        tau = 0.7
        probs = np.exp(z / tau) / np.exp(z / tau).sum()
        draws = 100_000
        counts = np.zeros(3)
        for _ in range(draws):
            counts += sample_k_mask(z, 1, tau, rng)
        for j in range(3):
            sigma = np.sqrt(draws * probs[j] * (1 - probs[j]))
            assert abs(counts[j] - draws * probs[j]) < 3 * sigma

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError):
            sample_k_mask([1.0, 2.0], 1, 0.0, np.random.default_rng(0))


class TestMaskSoftmax:
    def test_symmetric(self):
        np.testing.assert_allclose(mask_softmax([0.0, 0.0], [1, 1]), [0.5, 0.5])

    def test_reference_values(self):
        # e^1 / (e^1 + e^3) = 0.11920, e^3 / (e^1 + e^3) = 0.88080
        p = mask_softmax([1.0, 2.0, 3.0], [1, 0, 1])
        np.testing.assert_allclose(p, [0.11920, 0.0, 0.88080], atol=1e-5)
        assert p[1] == 0.0

    def test_one_hot_mask(self):
        np.testing.assert_array_equal(
            mask_softmax([3.0, -1.0, 0.2], [0, 1, 0]), [0.0, 1.0, 0.0]
        )

    def test_large_logits_stable(self):
        p = mask_softmax(np.array([1e4, 9.9e3]), [1, 1])
        assert np.isfinite(p).all()
        assert abs(p.sum() - 1.0) < 1e-9

    def test_all_zero_mask_rejected(self):
        with pytest.raises(ValueError):
            mask_softmax([1.0, 2.0], [0, 0])

    def test_support_matches_mask_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = rng.integers(2, 7)
            z = rng.normal(size=m)
            d = topk_mask(rng.normal(size=m), rng.integers(1, m + 1))
            p = mask_softmax(z, d)
            assert np.all(p[d == 0.0] == 0.0)
            assert np.all(p[d == 1.0] > 0.0)
            assert abs(p.sum() - 1.0) < 1e-9


def _reachable_bfs(masks, n):
    """Independent reachability oracle: BFS backward over selected edges."""
    adj = {i: [j + 1 for j in range(i - 1) if masks[i - 2][j] > 0] for i in range(2, n + 1)}
    seen = {n}
    frontier = [n]
    while frontier:
        i = frontier.pop()
        for j in adj.get(i, []):
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    return seen


class TestEffectiveModules:
    def test_skip_example(self):
        # five modules; module 4 routes from {1,2}, module 5 from {2,4};
        # modules 2 and 3 get placeholder masks; 3 is unreachable
        masks = [
            np.array([1.0]),            # d^2
            np.array([1.0, 0.0]),       # d^3
            np.array([1.0, 1.0, 0.0]),  # d^4 -> {1,2}
            np.array([0.0, 1.0, 0.0, 1.0]),  # d^5 -> {2,4}
        ]
        assert effective_modules(masks, 5) == {1, 2, 4, 5}
        assert effective_modules(masks, 5) == _reachable_bfs(masks, 5)

    def test_full_graph(self):
        masks = [np.ones(i - 1) for i in range(2, 7)]
        assert effective_modules(masks, 6) == set(range(1, 7))

    def test_two_modules(self):
        assert effective_modules([np.array([1.0])], 2) == {1, 2}

    def test_agrees_with_bfs_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, 4))
            masks = [topk_mask(rng.normal(size=i - 1), k) for i in range(2, n + 1)]
            assert effective_modules(masks, n) == _reachable_bfs(masks, n)


class TestRouteBalanceTemperatures:
    def test_uniform(self):
        np.testing.assert_allclose(
            route_balance_temperatures([1.0, 1.0, 1.0, 1.0]), [0.25] * 4
        )

    def test_hand_case(self):
        np.testing.assert_allclose(
            route_balance_temperatures([0.5, 2.0]), [0.8, 0.2]
        )

    def test_monotone_decreasing(self):
        taus = route_balance_temperatures([0.1, 0.5, 1.0, 3.0])
        assert np.all(np.diff(taus) < 0.0)

    def test_sums_to_one_and_scale_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = rng.uniform(0.01, 10.0, size=rng.integers(2, 8))
            t1 = route_balance_temperatures(a)
            t2 = route_balance_temperatures(a * 37.5)
            assert abs(t1.sum() - 1.0) < 1e-12
            np.testing.assert_allclose(t1, t2, atol=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            route_balance_temperatures([1.0, 0.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            route_balance_temperatures([np.nan, 1.0])
