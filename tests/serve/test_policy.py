"""Tests for the staleness-SLO adaptive refresh policy."""

import math

import pytest

from repro.serve.policy import AdaptiveRefreshPolicy, StalenessSLO


class TestStalenessSLO:
    def test_defaults_valid(self):
        slo = StalenessSLO()
        assert 0.0 < slo.max_error <= 1.0
        assert slo.check_probes >= 1

    @pytest.mark.parametrize("max_error", [0.0, -0.1, 1.5])
    def test_rejects_bad_max_error(self, max_error):
        with pytest.raises(ValueError, match="max_error"):
            StalenessSLO(max_error=max_error)

    def test_rejects_bad_check_probes(self):
        with pytest.raises(ValueError, match="check_probes"):
            StalenessSLO(check_probes=0)

    def test_rejects_bad_min_coverage(self):
        with pytest.raises(ValueError, match="min_coverage"):
            StalenessSLO(min_coverage=1.5)


class TestAdaptiveRefreshPolicy:
    def test_rejects_bad_ewma(self):
        with pytest.raises(ValueError, match="ewma"):
            AdaptiveRefreshPolicy(ewma=0.0)

    def test_unchanged_token_serves_fresh(self):
        policy = AdaptiveRefreshPolicy()
        assert policy.decide(0).action == "served_fresh"

    def test_unknown_rate_predicts_infinity(self):
        policy = AdaptiveRefreshPolicy()
        assert math.isinf(policy.predicted_error(1))
        # First staleness is never trusted: it escalates to a check.
        assert policy.decide(1).action == "refresh"

    def test_learned_rate_allows_stale_serving(self):
        policy = AdaptiveRefreshPolicy(slo=StalenessSLO(max_error=0.1))
        # A check over 100 bumps measured tiny drift: rate ~ 1e-4/bump.
        refresh = policy.observe_check(100, 0.01)
        assert not refresh
        decision = policy.decide(50)
        assert decision.action == "served_stale"
        assert decision.predicted_error == pytest.approx(0.01 + 0.0001 * 50)

    def test_predicted_error_above_slo_escalates(self):
        policy = AdaptiveRefreshPolicy(slo=StalenessSLO(max_error=0.1))
        policy.observe_check(10, 0.05)  # rate 0.005/bump, base 0.05
        assert policy.decide(5).action == "served_stale"
        assert policy.decide(100).action == "refresh"

    def test_check_above_slo_demands_refresh(self):
        policy = AdaptiveRefreshPolicy(slo=StalenessSLO(max_error=0.1))
        assert policy.observe_check(10, 0.5) is True
        # A demanded refresh does not re-base; observe_refresh does.
        policy.observe_refresh()
        assert policy.predicted_error(0) == 0.0

    def test_kept_check_rebases_error(self):
        policy = AdaptiveRefreshPolicy(slo=StalenessSLO(max_error=0.2))
        policy.observe_check(10, 0.15)
        assert policy.predicted_error(0) == pytest.approx(0.15)

    def test_rate_is_ewma_of_observations(self):
        policy = AdaptiveRefreshPolicy(ewma=0.5)
        policy.observe_check(10, 0.1)   # rate = 0.01
        policy.observe_check(10, 0.3)   # observed 0.03 -> 0.5*0.01 + 0.5*0.03
        assert policy.predicted_error(10) - policy.predicted_error(0) == pytest.approx(0.2)

    def test_rate_floor_prevents_zero_rate(self):
        policy = AdaptiveRefreshPolicy(rate_floor=1e-6)
        policy.observe_check(10, 0.0)
        assert policy.predicted_error(10) - policy.predicted_error(0) == pytest.approx(1e-5)
        # Prediction keeps growing with bumps instead of flatlining.
        assert policy.predicted_error(10**7) > 1.0

    def test_zero_bump_check_does_not_update_rate(self):
        policy = AdaptiveRefreshPolicy()
        policy.observe_check(0, 0.05)
        assert math.isinf(policy.predicted_error(1))
