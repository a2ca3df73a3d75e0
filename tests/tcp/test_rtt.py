"""Unit tests for the RFC 6298 RTT estimator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TcpStateError
from repro.tcp.rtt import RttEstimator


def estimator(**bounds):
    """An estimator whose ``min_rto``/``max_rto``/``initial_rto`` are
    ``bounds`` (the shipped ones otherwise)."""
    return type("Estimator", (RttEstimator,), bounds)()


class TestSampling:
    def test_first_sample_initializes(self):
        est = RttEstimator()
        est.on_sample(0.1)
        assert est.srtt == pytest.approx(0.1)
        assert est.rttvar == pytest.approx(0.05)

    def test_ewma_smoothing(self):
        est = RttEstimator()
        est.on_sample(0.1)
        est.on_sample(0.2)
        # srtt = 7/8*0.1 + 1/8*0.2
        assert est.srtt == pytest.approx(0.1125)

    def test_min_rtt_tracked(self):
        est = RttEstimator()
        for rtt in (0.10, 0.05, 0.20):
            est.on_sample(rtt)
        assert est.min_rtt == pytest.approx(0.05)

    def test_non_positive_sample_rejected(self):
        with pytest.raises(TcpStateError):
            RttEstimator().on_sample(0.0)


class TestRto:
    def test_initial_rto_before_samples(self):
        est = estimator(initial_rto=0.25)
        assert est.rto == pytest.approx(0.25)

    def test_rto_formula(self):
        est = estimator(min_rto=1e-4)
        est.on_sample(0.1)
        # rto = srtt + 4*rttvar = 0.1 + 4*0.05
        assert est.rto == pytest.approx(0.3)

    def test_min_rto_floor(self):
        est = estimator(min_rto=0.5)
        est.on_sample(0.001)
        assert est.rto >= 0.5

    def test_max_rto_ceiling(self):
        est = estimator(max_rto=1.0)
        est.on_sample(10.0)
        assert est.rto == 1.0

    def test_backoff_doubles(self):
        est = estimator(min_rto=1e-4, max_rto=100.0)
        est.on_sample(0.1)
        base = est.rto
        est.backoff()
        assert est.rto == pytest.approx(2 * base)
        est.backoff()
        assert est.rto == pytest.approx(4 * base)

    def test_backoff_capped(self):
        est = RttEstimator()
        for _ in range(20):
            est.backoff()
        assert est.rto == pytest.approx(64 * est.initial_rto)

    def test_sample_clears_backoff(self):
        est = estimator(min_rto=1e-4)
        est.on_sample(0.1)
        est.backoff()
        est.on_sample(0.1)
        unbacked = estimator(min_rto=1e-4)
        unbacked.on_sample(0.1)
        unbacked.on_sample(0.1)
        assert est.rto == unbacked.rto


class Rfc6298:
    """The timeout as RFC 6298 states it, computed when asked — what
    ``RttEstimator.rto`` was before it became a field written where
    ``srtt``, ``rttvar`` or the backoff change."""

    def __init__(self, min_rto, max_rto, initial_rto):
        self.min_rto, self.max_rto, self.initial_rto = min_rto, max_rto, initial_rto
        self.srtt = self.rttvar = None
        self.backoff_factor = 1

    def on_sample(self, rtt):
        if self.srtt is None:  # §2.2
            self.srtt, self.rttvar = rtt, rtt / 2.0
        else:  # §2.3, RTTVAR before SRTT
            self.rttvar = (1 - 1 / 4) * self.rttvar + 1 / 4 * abs(self.srtt - rtt)
            self.srtt = (1 - 1 / 8) * self.srtt + 1 / 8 * rtt
        self.backoff_factor = 1  # a valid sample ends the back-off

    def backoff(self):  # §5.5, capped like the estimator's
        self.backoff_factor = min(self.backoff_factor * 2, 64)

    @property
    def rto(self):
        base = (
            self.initial_rto if self.srtt is None
            else self.srtt + 4 * self.rttvar
        )
        return min(max(self.min_rto, base) * self.backoff_factor, self.max_rto)


#: one step: an RTT sample (which also resets the back-off), or a timeout
STEPS = st.lists(
    st.one_of(
        st.floats(1e-7, 100.0, exclude_min=False),
        st.just("backoff"),
    ),
    max_size=60,
)


@given(
    steps=STEPS,
    min_rto=st.sampled_from([1e-4, 1e-3, 0.2, 1.0]),
    max_rto=st.sampled_from([1.0, 60.0, 120.0]),
    initial_rto=st.sampled_from([0.05, 0.1, 1.0, 3.0]),
)
@settings(max_examples=300, deadline=None)
def test_rto_field_is_the_rfc6298_expression_after_every_step(
    steps, min_rto, max_rto, initial_rto
):
    est = estimator(min_rto=min_rto, max_rto=max_rto, initial_rto=initial_rto)
    model = Rfc6298(min_rto, max_rto, initial_rto)
    assert est.rto == model.rto
    for step in steps:
        for side in (est, model):
            if step == "backoff":
                side.backoff()
            else:
                side.on_sample(step)
        assert est.rto == model.rto
        assert (est.srtt, est.rttvar) == (model.srtt, model.rttvar)
