"""Planner-invariant tests (the sweep engine's safety net).

For randomized traces across dense/MoE/recompute/ZeRO/virtual-pipeline
configurations these tests assert the fundamental guarantees of a
:class:`StaticAllocationPlan`:

* no two requests that are live at the same time overlap in address space
  (checked with an independent brute-force verifier, not ``plan.validate``);
* every decision lies inside the static pool;
* the pool size equals the sum of the memory-layer sizes the global planner
  stacked (and therefore covers the peak static demand);
* every static request receives exactly one decision;
* dynamic reusable spaces never intersect a static decision that is live
  during the HomoLayer group's temporal range.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic_space import group_temporal_range, homolayer_groups
from repro.core.events import MemoryRequest, Phase, PhaseKind
from repro.core.plan import AllocationDecision, StaticAllocationPlan
from repro.core.profiler import AllocationProfiler, ProfileResult
from repro.core.stalloc import STAllocConfig
from repro.core.synthesizer import PlanSynthesizer
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.tracegen import TraceGenerator
from repro.workloads.training import TrainingConfig


def _dense(**overrides) -> TrainingConfig:
    defaults = dict(
        model=get_model("gpt2-345m"),
        parallelism=ParallelismConfig(tensor_parallel=1, pipeline_parallel=4, data_parallel=2),
        micro_batch_size=2,
        num_microbatches=2,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


def _moe(**overrides) -> TrainingConfig:
    defaults = dict(
        model=get_model("qwen1.5-moe-a2.7b"),
        parallelism=ParallelismConfig(
            tensor_parallel=1, pipeline_parallel=4, data_parallel=2, expert_parallel=4
        ),
        micro_batch_size=1,
        num_microbatches=2,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


CONFIG_CASES: dict[str, TrainingConfig] = {
    "dense-naive": _dense(),
    "dense-recompute": _dense(recompute=True),
    "dense-offload": _dense(offload_activations=True),
    "dense-vpp": _dense(
        parallelism=ParallelismConfig(
            tensor_parallel=1, pipeline_parallel=4, data_parallel=2, virtual_pipeline_chunks=2
        )
    ),
    "dense-zero1": _dense(zero_stage=1),
    "dense-zero3": _dense(zero_stage=3),
    "moe": _moe(),
    "moe-recompute": _moe(recompute=True),
}

SEEDS = [0, 1]

_SYNTH_CACHE: dict = {}


def synthesize(case: str, seed: int):
    """Profile + synthesize one config case (memoised; the checks share it)."""
    key = (case, seed)
    if key not in _SYNTH_CACHE:
        config = CONFIG_CASES[case]
        trace = TraceGenerator(config, seed=seed, scale=0.5).generate()
        profile = AllocationProfiler().profile(trace)
        plan = PlanSynthesizer(STAllocConfig().synthesizer_config()).synthesize(profile)
        _SYNTH_CACHE[key] = (profile, plan)
    return _SYNTH_CACHE[key]


def assert_no_spatio_temporal_overlap(plan: StaticAllocationPlan) -> None:
    """Independent O(n^2) verifier for the no-memory-stomping property."""
    decisions = sorted(plan.decisions, key=lambda d: d.address)
    for i, a in enumerate(decisions):
        for b in decisions[i + 1 :]:
            if b.address >= a.end_address:
                break  # sorted by address: no later decision can overlap a
            if a.request.overlaps(b.request):
                raise AssertionError(
                    f"requests {a.request.req_id} and {b.request.req_id} overlap in "
                    f"space ([{a.address}, {a.end_address}) vs [{b.address}, {b.end_address})) "
                    f"and time ([{a.request.alloc_time}, {a.request.free_time}) vs "
                    f"[{b.request.alloc_time}, {b.request.free_time}))"
                )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
class TestStaticPlanInvariants:
    def test_no_spatio_temporal_overlap(self, case, seed):
        _, plan = synthesize(case, seed)
        assert plan.static_plan.decisions
        assert_no_spatio_temporal_overlap(plan.static_plan)

    def test_every_decision_fits_inside_pool(self, case, seed):
        _, plan = synthesize(case, seed)
        for decision in plan.static_plan.decisions:
            assert decision.address >= 0
            assert decision.end_address <= plan.pool_size

    def test_pool_size_is_sum_of_layer_sizes(self, case, seed):
        _, plan = synthesize(case, seed)
        layer_sizes = plan.synthesis_info["layers"]["layer_sizes"]
        assert plan.pool_size == sum(layer_sizes)
        assert plan.static_plan.peak_planned_bytes() <= plan.pool_size

    def test_pool_covers_peak_static_demand(self, case, seed):
        _, plan = synthesize(case, seed)
        assert plan.pool_size >= plan.synthesis_info["peak_static_demand_bytes"]

    def test_plan_covers_every_static_request_exactly_once(self, case, seed):
        profile, plan = synthesize(case, seed)
        planned = [d.request.req_id for d in plan.static_plan.decisions]
        assert len(planned) == len(set(planned))
        assert set(planned) == {r.req_id for r in profile.static_requests}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", ["moe", "moe-recompute"])
class TestDynamicSpaceInvariants:
    def test_reusable_spaces_lie_inside_pool(self, case, seed):
        _, plan = synthesize(case, seed)
        assert plan.dynamic_reusable_spaces
        for spaces in plan.dynamic_reusable_spaces.values():
            for interval in spaces:
                assert 0 <= interval.start < interval.end <= plan.pool_size

    def test_reusable_spaces_avoid_live_static_decisions(self, case, seed):
        """No reusable byte may belong to a static request live in the group's range."""
        profile, plan = synthesize(case, seed)
        groups = homolayer_groups(profile.dynamic_requests)
        for key, members in groups.items():
            spaces = plan.dynamic_reusable_spaces[key]
            if not spaces:
                continue
            start, end = group_temporal_range(key, members, profile.module_spans)
            for decision in plan.static_plan.decisions:
                request = decision.request
                if request.alloc_time <= end and request.free_time > start:
                    for interval in spaces:
                        assert not (
                            interval.start < decision.end_address
                            and decision.address < interval.end
                        ), (
                            f"reusable interval [{interval.start}, {interval.end}) of group "
                            f"{key} overlaps live static request {request.req_id}"
                        )

    def test_every_dynamic_request_is_routed_to_its_group(self, case, seed):
        profile, plan = synthesize(case, seed)
        for request in profile.dynamic_requests:
            assert plan.dynamic_request_groups[request.req_id] == request.layer_pair


ABLATIONS = {
    "no-fusion": STAllocConfig(enable_fusion=False),
    "no-gap-insertion": STAllocConfig(enable_gap_insertion=False),
    "ascending-order": STAllocConfig(descending_size_order=False),
    "no-dynamic-reuse": STAllocConfig(enable_dynamic_reuse=False),
}


@pytest.mark.parametrize("case", ["dense-recompute", "moe"])
@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
class TestAblationSafety:
    def test_ablated_plans_remain_safe(self, case, ablation):
        """Every ablation may cost memory, but must never produce stomping."""
        config = CONFIG_CASES[case]
        trace = TraceGenerator(config, seed=0, scale=0.5).generate()
        profile = AllocationProfiler().profile(trace)
        stalloc_config = ABLATIONS[ablation]
        plan = PlanSynthesizer(stalloc_config.synthesizer_config()).synthesize(profile)
        assert_no_spatio_temporal_overlap(plan.static_plan)
        for decision in plan.static_plan.decisions:
            assert decision.end_address <= plan.pool_size


class TestRandomizedRequestStreams:
    """Synthesizer safety on adversarial random workloads (not just tracegen's)."""

    @staticmethod
    def _random_profile(seed: int) -> ProfileResult:
        rng = random.Random(seed)
        phases = [
            Phase(index=0, kind=PhaseKind.FORWARD, microbatch=0),
            Phase(index=1, kind=PhaseKind.FORWARD, microbatch=1),
            Phase(index=2, kind=PhaseKind.BACKWARD, microbatch=1),
            Phase(index=3, kind=PhaseKind.BACKWARD, microbatch=0),
        ]
        requests = []
        clock = 0
        for req_id in range(rng.randint(40, 120)):
            alloc_time = clock
            clock += rng.randint(1, 3)
            lifespan = rng.randint(1, 50)
            size = 512 * rng.randint(1, 4096)
            alloc_phase = phases[min(alloc_time * len(phases) // 400, len(phases) - 1)]
            free_phase = phases[min((alloc_time + lifespan) * len(phases) // 400, len(phases) - 1)]
            requests.append(
                MemoryRequest(
                    req_id=req_id,
                    size=size,
                    alloc_time=alloc_time,
                    free_time=alloc_time + lifespan,
                    alloc_phase=alloc_phase,
                    free_phase=free_phase,
                )
            )
        end_time = max(r.free_time for r in requests) + 1
        return ProfileResult(requests=requests, phases=phases, end_time=end_time)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_streams_plan_safely(self, seed):
        profile = self._random_profile(seed)
        plan = PlanSynthesizer(STAllocConfig().synthesizer_config()).synthesize(profile)
        assert_no_spatio_temporal_overlap(plan.static_plan)
        assert len(plan.static_plan) == len(profile.requests)
        layer_sizes = plan.synthesis_info["layers"]["layer_sizes"]
        assert plan.pool_size == sum(layer_sizes)
        for decision in plan.static_plan.decisions:
            assert 0 <= decision.address and decision.end_address <= plan.pool_size


class TestValidateDetectsBrokenPlans:
    """plan.validate() must agree with the independent checker on bad plans."""

    @staticmethod
    def _request(req_id: int, size: int, alloc_time: int, free_time: int) -> MemoryRequest:
        phase = Phase(index=0, kind=PhaseKind.FORWARD, microbatch=0)
        return MemoryRequest(
            req_id=req_id,
            size=size,
            alloc_time=alloc_time,
            free_time=free_time,
            alloc_phase=phase,
            free_phase=phase,
        )

    def test_rejects_spatio_temporal_overlap(self):
        plan = StaticAllocationPlan(
            decisions=[
                AllocationDecision(request=self._request(0, 1024, 0, 10), address=0),
                AllocationDecision(request=self._request(1, 1024, 5, 15), address=512),
            ],
            pool_size=4096,
        )
        with pytest.raises(ValueError, match="memory stomping"):
            plan.validate()
        with pytest.raises(AssertionError):
            assert_no_spatio_temporal_overlap(plan)

    def test_accepts_time_disjoint_space_overlap(self):
        plan = StaticAllocationPlan(
            decisions=[
                AllocationDecision(request=self._request(0, 1024, 0, 5), address=0),
                AllocationDecision(request=self._request(1, 1024, 5, 10), address=0),
            ],
            pool_size=1024,
        )
        plan.validate()
        assert_no_spatio_temporal_overlap(plan)

    def test_rejects_decision_beyond_pool(self):
        plan = StaticAllocationPlan(
            decisions=[AllocationDecision(request=self._request(0, 2048, 0, 5), address=0)],
            pool_size=1024,
        )
        with pytest.raises(ValueError, match="beyond the pool size"):
            plan.validate()

    def test_touching_in_space_or_time_is_not_a_conflict(self):
        plan = StaticAllocationPlan(
            decisions=[
                AllocationDecision(request=self._request(0, 1024, 0, 10), address=0),
                AllocationDecision(request=self._request(1, 1024, 0, 10), address=1024),
                AllocationDecision(request=self._request(2, 2048, 10, 20), address=0),
            ],
            pool_size=2048,
        )
        plan.validate()

    def test_frees_are_swept_before_allocations_at_equal_times(self):
        """Request 1 ends at t=10 where 0 and 2 start: were it still live
        there, it would sit between 2 and its true conflict 0 in address
        order and hide that conflict from the neighbour check."""
        plan = StaticAllocationPlan(
            decisions=[
                AllocationDecision(request=self._request(0, 512, 10, 20), address=0),
                AllocationDecision(request=self._request(1, 512, 0, 10), address=0),
                AllocationDecision(request=self._request(2, 512, 10, 20), address=256),
            ],
            pool_size=1024,
        )
        with pytest.raises(ValueError, match="memory stomping: requests 2 and 0"):
            plan.validate()

    def test_checks_each_decision_against_at_most_two_neighbours(self, monkeypatch):
        """n back-to-back lifespans at one address: the sweep makes at most
        2n ``conflicts_with`` calls (an address-ordered scan makes ~n^2/2)."""
        n = 5000
        plan = StaticAllocationPlan(
            decisions=[
                AllocationDecision(request=self._request(i, 1024, i, i + 1), address=0)
                for i in range(n)
            ],
            pool_size=1024,
        )
        calls = 0
        original = AllocationDecision.conflicts_with

        def counting(self, other):
            nonlocal calls
            calls += 1
            return original(self, other)

        monkeypatch.setattr(AllocationDecision, "conflicts_with", counting)
        plan.validate()
        assert calls <= 2 * n

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),  # address, in 256-byte units
                st.integers(min_value=1, max_value=3),  # size, in 256-byte units
                st.integers(min_value=0, max_value=6),  # alloc time
                st.integers(min_value=1, max_value=3),  # lifespan
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_validate_agrees_with_independent_checker(self, specs):
        """Small random plans, dense in touching addresses and time
        boundaries: validate raises exactly when the brute force does."""
        plan = StaticAllocationPlan(
            decisions=[
                AllocationDecision(
                    request=self._request(i, size * 256, alloc, alloc + lifespan),
                    address=address * 256,
                )
                for i, (address, size, alloc, lifespan) in enumerate(specs)
            ]
        )
        try:
            assert_no_spatio_temporal_overlap(plan)
            expected_conflict = False
        except AssertionError:
            expected_conflict = True
        if expected_conflict:
            with pytest.raises(ValueError, match="memory stomping"):
                plan.validate()
        else:
            plan.validate()
