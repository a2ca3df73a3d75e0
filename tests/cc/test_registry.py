"""Unit tests for the CCA registry."""

import importlib
import pkgutil

import pytest

import repro.cc
from repro.cc.base import CongestionControl
from repro.cc.reno import Reno
from repro.cc.registry import (
    PAPER_ALGORITHMS,
    _REGISTRY,
    create,
    factory,
    get_class,
    register,
)
from repro.errors import ReproError
from tests.cc.conftest import FakeContext, make_event


class TestLookup:
    def test_all_paper_algorithms_registered(self):
        for name in PAPER_ALGORITHMS:
            assert get_class(name).name == name

    def test_paper_set_is_ten_algorithms(self):
        assert len(PAPER_ALGORITHMS) == 10

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(ReproError, match="cubic"):
            get_class("not-a-cca")

    def test_create_instantiates(self, ctx):
        cc = create("reno", ctx)
        assert cc.name == "reno"
        assert isinstance(cc, CongestionControl)

    def test_factory_closure(self, ctx):
        make = factory("cubic")
        assert make(ctx).name == "cubic"

    def test_factory_kwargs(self, ctx):
        make = factory("baseline", window_segments=42)
        assert make(ctx).cwnd == 42 * ctx.mss


class TestRegistration:
    def test_duplicate_name_rejected(self):
        class Dup(CongestionControl):
            name = "cubic"

        with pytest.raises(ReproError):
            register(Dup)

    def test_unnamed_class_rejected(self):
        class NoName(CongestionControl):
            name = "base"

        with pytest.raises(ReproError):
            register(NoName)

    def test_new_algorithm_registers_and_cleans_up(self, ctx):
        class Custom(CongestionControl):
            name = "custom-test-cca"

        register(Custom)
        try:
            assert create("custom-test-cca", ctx).name == "custom-test-cca"
        finally:
            from repro.cc import registry

            del registry._REGISTRY["custom-test-cca"]


class TestContract:
    def test_every_cca_is_registered_and_overrides_on_ack(self):
        """Each CongestionControl subclass defined in a repro.cc module is
        the registry's entry for its own name (so an experiment can select
        it), and has an on_ack below the base class, except Reno: the
        base-class AIMD *is* Reno."""
        from repro.cc.registry import _REGISTRY

        found = []
        for info in pkgutil.iter_modules(repro.cc.__path__):
            module = importlib.import_module(f"repro.cc.{info.name}")
            for cls in vars(module).values():
                if (
                    isinstance(cls, type)
                    and issubclass(cls, CongestionControl)
                    and cls is not CongestionControl
                    and cls.__module__ == module.__name__
                ):
                    found.append(cls.__name__)
                    assert _REGISTRY.get(cls.name) is cls, cls.__name__
                    inherits = cls.on_ack is CongestionControl.on_ack
                    assert inherits == (cls is Reno), cls.__name__
        assert len(found) == len(_REGISTRY)

    @pytest.mark.parametrize("name", sorted(_REGISTRY))
    def test_window_never_below_min_cwnd(self, name):
        """Every registered CCA, driven on a scripted context through
        rounds of ACKs, ECN echoes, losses, recovery exits and timeouts,
        keeps ``min_cwnd <= cwnd`` after each call."""
        ctx = FakeContext()
        ctx.set_rtt(0.001)
        cca = create(name, ctx)
        tx_bytes = 0
        reactions = ["on_ack"] * 8 + [
            "on_ecn",
            "on_congestion_event",
            "on_recovery_exit",
            "on_rto",
        ]
        for round_ in range(5):
            for step, reaction in enumerate(reactions):
                ctx.advance(0.0002)
                tx_bytes += 1460
                event = make_event(
                    rtt=0.001,
                    rate=1e9,
                    ece=step % 2 == 1,
                    marked=1460 * (step % 2),
                    cumulative=tx_bytes,
                )
                # an INT echo, so HPCC's window moves on ACKs too
                event.int_qlen_bytes = 1460 * step
                event.int_tx_bytes = float(tx_bytes)
                event.int_timestamp = ctx.now
                event.int_link_rate_bps = 10e9
                if reaction in ("on_recovery_exit", "on_rto"):
                    getattr(cca, reaction)()
                else:
                    getattr(cca, reaction)(event)
                assert cca.min_cwnd <= cca.cwnd, (name, round_, reaction)
