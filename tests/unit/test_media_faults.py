"""Unit tests for the NVM media-fault model and the controller's retry path."""

import pytest

from repro.core.schemes import SCHEMES, create_scheme
from repro.faults import MediaFaultModel
from repro.mem.nvm import PermanentMediaError, TransientReadFault
from repro.metadata.metacache import IntegrityError

from tests.conftest import TINY_CAPACITY, payload


@pytest.fixture
def scheme():
    s = create_scheme("ccnvm", data_capacity=TINY_CAPACITY)
    for i in range(4):
        s.writeback(i * 1000, 0x2000 + i * 64, payload(i))
    return s


@pytest.fixture(params=sorted(SCHEMES))
def design(request):
    """Every design, with four committed blocks and a media model fitted."""
    s = create_scheme(request.param, data_capacity=TINY_CAPACITY)
    for i in range(4):
        s.writeback(i * 1000, 0x2000 + i * 64, payload(i))
    model = MediaFaultModel()
    s.nvm.set_media_model(model)
    return s, model


class TestModelSchedule:
    def test_transient_faults_decrement_and_clear(self):
        model = MediaFaultModel()
        model.inject_transient(0x40, count=2)
        assert model.on_read(0x40) == "detectable"
        assert model.on_read(0x40) == "detectable"
        assert model.on_read(0x40) is None
        assert model.delivered["transient"] == 2

    def test_permanent_faults_never_clear(self):
        model = MediaFaultModel()
        model.inject_permanent(0x40)
        for _ in range(5):
            assert model.on_read(0x40) == "detectable"
        model.clear(0x40)
        assert model.on_read(0x40) is None

    def test_silent_bitflip_corrupts_one_bit(self):
        model = MediaFaultModel()
        model.inject_silent_bitflip(0x40, byte_index=7)
        assert model.on_read(0x40) == "silent"
        line = bytes(64)
        corrupted = model.corrupt(0x40, line)
        assert corrupted[7] == 0x01
        assert corrupted[:7] == line[:7] and corrupted[8:] == line[8:]

    def test_schedule_validation(self):
        model = MediaFaultModel()
        with pytest.raises(ValueError):
            model.inject_transient(0x40, count=0)
        with pytest.raises(ValueError):
            model.inject_silent_bitflip(0x40, byte_index=64)


class TestDeviceIntegration:
    def test_unfaulted_reads_unaffected(self, scheme):
        scheme.nvm.set_media_model(MediaFaultModel())
        got, _ = scheme.read(10_000, 0x2000)
        assert got == payload(0)

    def test_device_raises_transient_fault(self, scheme):
        model = MediaFaultModel()
        scheme.nvm.set_media_model(model)
        model.inject_transient(0x2000)
        with pytest.raises(TransientReadFault):
            scheme.nvm.read_line(0x2000)
        # The fault cleared on delivery; the re-read succeeds.
        scheme.nvm.read_line(0x2000)


class TestControllerRetry:
    def test_transient_fault_absorbed_with_backoff(self, scheme):
        model = MediaFaultModel()
        scheme.nvm.set_media_model(model)
        model.inject_transient(0x2000, count=2)
        got, _ = scheme.read(10_000, 0x2000)
        assert got == payload(0)
        stats = scheme.controller.stats
        assert stats.counter("media_read_retries").value == 2
        assert stats.counter("media_faults_absorbed").value == 1
        backoff = scheme.config.controller.read_retry_backoff_cycles
        # Exponential backoff: first wait + doubled second wait.
        assert stats.counter("media_backoff_cycles").value == backoff * 3

    def test_backoff_is_capped_at_the_hard_ceiling(self):
        import dataclasses

        from repro.common.config import SystemConfig

        config = SystemConfig()
        config = dataclasses.replace(
            config,
            controller=dataclasses.replace(
                config.controller,
                read_retry_limit=8,
                read_retry_backoff_cycles=16,
                read_retry_backoff_cap_cycles=64,
            ),
        )
        scheme = create_scheme("ccnvm", config=config, data_capacity=TINY_CAPACITY)
        scheme.writeback(0, 0x2000, payload(0))
        model = MediaFaultModel()
        scheme.nvm.set_media_model(model)
        model.inject_transient(0x2000, count=5)
        got, _ = scheme.read(10_000, 0x2000)
        assert got == payload(0)
        stats = scheme.controller.stats
        # Backoffs: 16, 32, then pinned at the 64-cycle ceiling.
        assert stats.counter("media_read_retries").value == 5
        assert stats.counter("media_backoff_capped").value == 3
        assert stats.counter("media_backoff_cycles").value == 16 + 32 + 64 * 3

    def test_default_retry_budget_never_reaches_the_cap(self, scheme):
        model = MediaFaultModel()
        scheme.nvm.set_media_model(model)
        model.inject_transient(0x2000, count=3)
        got, _ = scheme.read(10_000, 0x2000)
        assert got == payload(0)
        # 16 -> 32 -> 64 stays under the 256-cycle default ceiling.
        assert scheme.controller.stats.counter("media_backoff_capped").value == 0

    def test_permanent_fault_degrades_with_located_report(self, scheme):
        model = MediaFaultModel()
        scheme.nvm.set_media_model(model)
        model.inject_permanent(0x2040)
        limit = scheme.config.controller.read_retry_limit
        with pytest.raises(PermanentMediaError) as exc:
            scheme.read(10_000, 0x2040)
        assert exc.value.addr == 0x2040
        assert exc.value.region == "data"
        assert exc.value.attempts == limit + 1
        assert scheme.controller.stats.counter(
            "media_permanent_failures"
        ).value == 1
        # Other lines are still served: graceful degradation, not an outage.
        got, _ = scheme.read(20_000, 0x2000)
        assert got == payload(0)

    def test_silent_bitflip_caught_by_data_hmac(self, scheme):
        model = MediaFaultModel()
        scheme.nvm.set_media_model(model)
        model.inject_silent_bitflip(0x2000, byte_index=3)
        with pytest.raises(IntegrityError):
            scheme.read(10_000, 0x2000)
        model.clear(0x2000)
        got, _ = scheme.read(20_000, 0x2000)
        assert got == payload(0)


class TestMediaContractOnEveryDesign:
    """The three media-fault contracts hold for every design, not only cc-NVM."""

    def test_transient_fault_absorbed(self, design):
        scheme, model = design
        model.inject_transient(0x2000, count=2)
        got, _ = scheme.read(10_000, 0x2000)
        assert got == payload(0)
        assert model.delivered["transient"] == 2

    def test_permanent_fault_located(self, design):
        scheme, model = design
        model.inject_permanent(0x2040)
        with pytest.raises(PermanentMediaError) as exc:
            scheme.read(10_000, 0x2040)
        assert (exc.value.addr, exc.value.region) == (0x2040, "data")
        assert exc.value.attempts == scheme.config.controller.read_retry_limit + 1

    def test_silent_bitflip_caught_by_data_hmac(self, design):
        scheme, model = design
        model.inject_silent_bitflip(0x2080, byte_index=5)
        with pytest.raises(IntegrityError):
            scheme.read(10_000, 0x2080)
