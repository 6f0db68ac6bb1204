"""AdaptiveRetryPolicy: EWMA learning, derived waits, and driver wiring."""

from __future__ import annotations

import random

import pytest

from repro.concurrency.driver import (
    AdaptiveRetryPolicy,
    RETRY_POLICIES,
    RetryPolicy,
    make_retry_policy,
    run_concurrent_benchmark,
)
from repro.bench.gates import comparable_payload
from repro.exceptions import BenchmarkError


class TestEwma:
    def test_first_observation_seeds_the_average(self):
        policy = AdaptiveRetryPolicy()
        policy.observe(100)
        assert policy.ewma == 100
        assert policy.observations == 1

    def test_later_observations_blend_in_at_one_over_smoothing(self):
        policy = AdaptiveRetryPolicy(smoothing=4)
        policy.observe(100)
        policy.observe(200)
        assert policy.ewma == (100 * 3 + 200) // 4
        assert policy.observations == 2

    def test_arithmetic_is_integer_only(self):
        policy = AdaptiveRetryPolicy(smoothing=4)
        for charge in (7, 13, 101, 3):
            policy.observe(charge)
        assert isinstance(policy.ewma, int)

    def test_negative_observation_rejected(self):
        with pytest.raises(BenchmarkError, match=">= 0"):
            AdaptiveRetryPolicy().observe(-1)


class TestDerivedWaits:
    def test_unobserved_policy_falls_back_to_the_fixed_base(self):
        base = RetryPolicy(max_retries=3, backoff_base=32)
        policy = AdaptiveRetryPolicy(base=base)
        assert policy.backoff_for(1, random.Random(7)) == base.backoff_for(
            1, random.Random(7)
        )
        assert policy.timeout(2048) == 2048
        assert policy.max_retries == 3

    def test_backoff_scales_with_the_observed_charge(self):
        policy = AdaptiveRetryPolicy()
        policy.observe(400)
        unit = max(1, policy.ewma // 2)
        wait = policy.backoff_for(1, random.Random(7))
        assert unit <= wait < unit + max(1, unit // 4)
        assert policy.backoff_for(3, random.Random(7)) >= unit * 4

    def test_timeout_is_a_multiple_of_the_ewma(self):
        policy = AdaptiveRetryPolicy(straggler_factor=4)
        policy.observe(300)
        assert policy.timeout(2048) == policy.ewma * 4

    def test_backoff_is_deterministic_for_a_seeded_rng(self):
        policy = AdaptiveRetryPolicy()
        policy.observe(256)
        assert policy.backoff_for(2, random.Random(5)) == policy.backoff_for(
            2, random.Random(5)
        )


class TestFactory:
    def test_fixed_returns_the_base_instance(self):
        base = RetryPolicy(max_retries=5)
        assert make_retry_policy("fixed", base) is base

    def test_adaptive_wraps_the_base(self):
        base = RetryPolicy(max_retries=5)
        policy = make_retry_policy("adaptive", base)
        assert isinstance(policy, AdaptiveRetryPolicy)
        assert policy.max_retries == 5

    def test_unknown_name_rejected(self):
        with pytest.raises(BenchmarkError, match="unknown retry policy"):
            make_retry_policy("psychic")

    def test_names_cover_the_cli_choices(self):
        assert RETRY_POLICIES == ("fixed", "adaptive")


class TestDriverWiring:
    def test_unknown_policy_rejected_by_the_benchmark(self):
        with pytest.raises(BenchmarkError, match="unknown --retry-policy"):
            run_concurrent_benchmark(["nativelinked-1.9"], retry_policy="psychic")

    @pytest.mark.parametrize("policy", RETRY_POLICIES)
    def test_both_policies_run_deterministically(self, policy):
        kwargs = dict(clients=4, txns=6, durabilities=("sync",), retry_policy=policy)
        first = run_concurrent_benchmark(["nativelinked-1.9"], **kwargs)
        second = run_concurrent_benchmark(["nativelinked-1.9"], **kwargs)
        assert comparable_payload(first) == comparable_payload(second)
        assert first["retry_policy"] == policy
