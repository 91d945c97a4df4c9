"""The compiled trace replay: byte-identical to the reference loop.

The pre-compiler's contract is absolute equivalence: lowering a trace
once and replaying it under the timing parameters must reproduce every
field of the reference loop's :class:`SimResult` — cycles to the last
bit (float arithmetic is replayed in the reference operation order, not
re-associated), statistics, metrics snapshot, and the warm cache state
left behind. These tests pin that contract across the registered scheme
cross-product on a randomized trace, at the warmup edge cases, through
warm reuse (where the compiled path must bow out), and under the armed
sanitizer; plus the security half — tampering still raises with the
compiled gate forced on.
"""

import dataclasses
import pickle

import pytest

from repro import fastpath, schemes
from repro.core import IntegrityError, sanitizer
from repro.core.config import PRESET_NAMES, MachineConfig
from repro.core.errors import ConfigurationError
from repro.sim.simulator import TimingSimulator
from repro.workloads.synthetic import WorkloadProfile, generate_trace
from tests.conftest import make_machine

KB = 1024
MB = 1024 * 1024

# Small but adversarial: a working set several times the L2, moderate
# writes (exercising dirty evictions and the writeback cascade), and
# short chunks (plenty of misses).
_PROFILE = WorkloadProfile("randomized", hot_bytes=96 * KB, cold_bytes=2 * MB,
                           hot_fraction=0.6, chunk_blocks=4,
                           write_fraction=0.35, mean_gap=7)


def random_trace(events: int = 4000, seed: int = 99):
    return generate_trace(_PROFILE, events, seed)


@pytest.fixture(autouse=True)
def _sanitizer_disarmed():
    """These tests assert the compiled path *engages*, which an armed

    sanitizer (leaked by an unrelated test, or ``REPRO_SANITIZE=1``
    without the suite knowing) would legitimately prevent.
    """
    previous = sanitizer.active()
    sanitizer.disarm()
    yield
    if previous is not None:
        sanitizer.arm(previous)
    else:
        sanitizer.disarm()


def run_reference(config: MachineConfig, trace, **kw):
    sim = TimingSimulator(config)
    with fastpath.forced(False):
        return sim.run(trace, **kw)


def run_compiled(config: MachineConfig, trace, **kw):
    sim = TimingSimulator(config)
    with fastpath.forced(True), fastpath.forced_compiled(True):
        result = sim.run(trace, **kw)
    # The equivalence claims below are about the replay: a run that
    # quietly took the per-event engine would prove nothing. Only a
    # deferred-update scheme may bow out, under its declared reason.
    t = sim.engine_telemetry
    assert (t.last_engine == fastpath.ENGINE_COMPILED
            or t.last_reason == "deferred_updates"), t.last_reason
    return result


def as_fields(result) -> dict:
    return dataclasses.asdict(result)


class TestSchemeCrossProduct:
    def test_every_registered_scheme_combo_is_byte_identical(self):
        """The property test of the equivalence claim.

        Every (encryption, integrity) combination the registries accept,
        on a seeded randomized trace, with metrics collected — compiled
        replay and reference loop must agree on every field.
        """
        trace = random_trace()
        combos = 0
        for enc in schemes.encryption_keys():
            for integ in schemes.integrity_keys():
                try:
                    config = MachineConfig(encryption=enc, integrity=integ)
                except ConfigurationError:
                    continue  # e.g. bonsai without counter storage
                try:
                    ref = run_reference(config, trace, warmup=0.3,
                                        collect_metrics=True)
                except ConfigurationError:
                    continue
                comp = run_compiled(config, trace, warmup=0.3,
                                    collect_metrics=True)
                assert as_fields(comp) == as_fields(ref), (enc, integ)
                combos += 1
        assert combos >= 30  # the registries really were crossed

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_presets_match_the_per_event_engine_too(self, preset):
        trace = random_trace(seed=7)
        config = MachineConfig.preset(preset)
        ref = as_fields(run_reference(config, trace))
        sim = TimingSimulator(config)
        with fastpath.forced(True), fastpath.forced_compiled(False):
            per_event = as_fields(sim.run(trace))
        comp = as_fields(run_compiled(config, trace))
        assert comp == ref
        assert per_event == ref


class TestEdges:
    @pytest.mark.parametrize("warmup", [0.0, 0.25, 0.999, 1.0])
    def test_warmup_edges(self, warmup):
        trace = random_trace(events=1500, seed=3)
        config = MachineConfig.preset("aise+bmt")
        ref = run_reference(config, trace, warmup=warmup)
        comp = run_compiled(config, trace, warmup=warmup)
        assert as_fields(comp) == as_fields(ref)

    def test_warm_reuse_falls_back_and_still_matches(self):
        """Run twice on one simulator: the second run sees warm caches.

        The compiled replay only engages on cold caches (it installs the
        recorded final contents afterwards), so run two must fall back to
        the per-event engine — and both runs must equal the reference.
        """
        trace = random_trace(events=2000, seed=11)
        config = MachineConfig.preset("aise+bmt")
        ref_sim = TimingSimulator(config)
        with fastpath.forced(False):
            ref1, ref2 = ref_sim.run(trace), ref_sim.run(trace)
        comp_sim = TimingSimulator(config)
        with fastpath.forced(True), fastpath.forced_compiled(True):
            comp1, comp2 = comp_sim.run(trace), comp_sim.run(trace)
        assert as_fields(comp1) == as_fields(ref1)
        assert as_fields(comp2) == as_fields(ref2)

    def test_armed_sanitizer_disables_the_compiled_replay(self):
        from repro.fastpath.compiled import execute_compiled

        trace = random_trace(events=800, seed=5)
        config = MachineConfig.preset("aise+bmt")
        with sanitizer.sanitized():
            assert execute_compiled(TimingSimulator(config), trace,
                                    0.25, 64) is None
            # ... and the full run (reference loop) still works and
            # matches the unsanitized result.
            armed = run_reference(config, trace)
        assert as_fields(armed) == as_fields(run_compiled(config, trace))

    def test_lowering_is_shared_across_timing_parameters(self):
        """Timing knobs replay one artifact; geometry changes re-lower."""
        trace = random_trace(events=1200, seed=13)
        slow = MachineConfig.preset("aise+bmt")
        fast_mem = MachineConfig.preset("aise+bmt", memory_latency=77)
        run_compiled(slow, trace)
        run_compiled(fast_mem, trace)
        assert len(trace.__dict__["_compiled"]) == 1
        assert as_fields(run_compiled(fast_mem, trace)) == as_fields(
            run_reference(fast_mem, trace))

    def test_pickled_traces_drop_the_lowering(self):
        trace = random_trace(events=600, seed=17)
        run_compiled(MachineConfig.preset("aise"), trace)
        assert "_compiled" in trace.__dict__
        clone = pickle.loads(pickle.dumps(trace))
        assert "_compiled" not in clone.__dict__
        assert clone.digest() == trace.digest()


def run_default(config: MachineConfig, trace, **kw):
    """A fresh simulator under the default engine choice; its telemetry."""
    sim = TimingSimulator(config)
    with fastpath.forced(True):
        result = sim.run(trace, **kw)
    return result, sim.engine_telemetry


class TestReuseRule:
    """Lower only where a lowering is replayed.

    A lowering costs about 1.7 per-event passes and a replay about 0.2,
    so a first cold sighting of (trace, traffic geometry) runs per-event
    and the second lowers. Results are byte-identical either way.
    """

    def test_pickling_drops_the_sighting_marker(self):
        trace = random_trace(events=600, seed=17)
        _, t = run_default(MachineConfig.preset("aise"), trace)
        assert t.last_reason == "single_use"
        assert trace.__dict__["_sighted"]
        clone = pickle.loads(pickle.dumps(trace))
        assert "_sighted" not in clone.__dict__
        # ... so the clone's first run is a first sighting again.
        _, t = run_default(MachineConfig.preset("aise"), clone)
        assert t.last_reason == "single_use"

    def test_two_geometries_never_lower(self):
        trace = random_trace(events=800, seed=19)
        for preset in ("aise", "aise+bmt"):
            _, t = run_default(MachineConfig.preset(preset), trace)
            assert t.last_engine == fastpath.ENGINE_PER_EVENT
            assert t.last_reason == "single_use"
            assert t.lowering_hits + t.lowering_misses == 0
        assert not trace.__dict__.get("_compiled")

    def test_timing_only_variation_lowers_then_replays(self):
        trace = random_trace(events=1200, seed=13)
        slow = MachineConfig.preset("aise+bmt")
        fast_mem = MachineConfig.preset("aise+bmt", memory_latency=77)
        _, first = run_default(slow, trace)
        second_result, second = run_default(fast_mem, trace)
        third_result, third = run_default(fast_mem, trace, warmup=0.5)
        assert first.last_reason == "single_use"
        assert second.last_engine == fastpath.ENGINE_COMPILED
        assert (second.lowering_hits, second.lowering_misses) == (0, 1)
        assert third.last_engine == fastpath.ENGINE_COMPILED
        assert (third.lowering_hits, third.lowering_misses) == (1, 0)
        assert as_fields(second_result) == as_fields(run_reference(fast_mem, trace))
        assert as_fields(third_result) == as_fields(
            run_reference(fast_mem, trace, warmup=0.5))


class TestSecurityPath:
    def test_tamper_still_raises_with_compiled_gates_on(self):
        """The fast gates must not bypass integrity verification."""
        with fastpath.forced(True), fastpath.forced_compiled(True):
            machine = make_machine(encryption="aise", integrity="bonsai")
            machine.write_block(0, b"\x5a" * 64)
            machine.memory.corrupt(0)
            with pytest.raises(IntegrityError):
                machine.read_block(0)
