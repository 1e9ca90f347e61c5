"""Bit-exactness of the power model's scalar hot path.

``PolynomialInterpolator`` evaluates its fit with a Python Horner loop and
``PulpPowerModel.max_frequency_within`` sums the activity density once per
call.  Both must return exactly what the straightforward numpy form does:
the reference functions below are that form, kept here verbatim (scalar
``np.polyval`` with a range check on every bisection step, and the density
re-summed at every frequency step).  Comparisons are ``==`` on floats, never
approximate.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import OperatingPointError
from repro.power import ActivityProfile, PolynomialInterpolator, PulpComponent
from repro.power.activity import StateFractions
from repro.power.pulp_model import PULP3_TABLE, V_NOMINAL, PulpPowerModel
from repro.units import mhz, mw

# -- reference implementation -------------------------------------------------


class _ReferenceFit:
    """``np.polyval`` evaluation and bisection inverse of a fit."""

    def __init__(self, xs, ys, degree):
        self.x_min, self.x_max = float(xs[0]), float(xs[-1])
        self.coefficients = np.polyfit(np.asarray(xs, dtype=float),
                                       np.asarray(ys, dtype=float), degree)

    def __call__(self, x):
        if x < self.x_min - 1e-12 or x > self.x_max + 1e-12:
            raise OperatingPointError(f"{x} outside interpolation range")
        return float(np.polyval(self.coefficients,
                                min(max(x, self.x_min), self.x_max)))

    def inverse(self, y, tolerance=1e-9):
        lo, hi = self.x_min, self.x_max
        y_lo, y_hi = self(lo), self(hi)
        y_tol = 1e-9 * max(abs(y_lo), abs(y_hi), 1.0)
        if y < y_lo - y_tol or y > y_hi + y_tol:
            raise OperatingPointError(f"{y} outside invertible range")
        y = min(max(y, y_lo), y_hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self(mid) < y:
                lo = mid
            else:
                hi = mid
            if hi - lo < tolerance:
                break
        return 0.5 * (lo + hi)


class _ReferenceModel:
    """The nested frequency/voltage bisection over the PULP3 table."""

    def __init__(self, model: PulpPowerModel):
        self.model = model
        self.table = model.table
        points = self.table.points
        self.fit = _ReferenceFit([p.voltage for p in points],
                                 [p.fmax for p in points], len(points) - 1)

    def voltage_for(self, frequency):
        table = self.table
        if frequency <= 0:
            raise OperatingPointError(f"non-positive frequency: {frequency}")
        if frequency <= table.f_min:
            return table.v_min
        if frequency > table.f_max + 1e-3:
            raise OperatingPointError(f"frequency {frequency} too high")
        return self.fit.inverse(min(frequency, table.f_max))

    def dynamic_density(self, activity, voltage):
        scale = (voltage / V_NOMINAL) ** 2
        total = 0.0
        for component in PulpComponent:
            rho = self.model.densities[component]
            chi = activity.fractions.get(component, StateFractions())
            total += chi.idle * rho.idle + chi.run * rho.run + chi.dma * rho.dma
        return total * scale

    def power_at_frequency(self, frequency, activity):
        voltage = self.voltage_for(frequency)
        if frequency > self.fit(voltage) * (1 + 1e-6):
            raise OperatingPointError("frequency exceeds f_max")
        dynamic = frequency * self.dynamic_density(activity, voltage)
        return dynamic + self.table.leakage_at(voltage)

    def max_frequency_within(self, budget, activity, tolerance=1e3):
        table = self.table
        if budget <= 0:
            return 0.0, table.v_min
        lo, hi = 0.0, table.f_max
        f_floor = min(mhz(1), hi)
        if self.power_at_frequency(f_floor, activity) > budget:
            return 0.0, table.v_min
        if self.power_at_frequency(hi, activity) <= budget:
            return hi, self.voltage_for(hi)
        lo = f_floor
        while hi - lo > tolerance:
            mid = 0.5 * (lo + hi)
            if self.power_at_frequency(mid, activity) <= budget:
                lo = mid
            else:
                hi = mid
        return lo, self.voltage_for(lo)


MODEL = PulpPowerModel()
REFERENCE = _ReferenceModel(MODEL)


def _bits(value: float) -> str:
    return float(value).hex()


# -- strategies ---------------------------------------------------------------

canonical_profiles = st.sampled_from([
    ActivityProfile.idle(),
    ActivityProfile.matmul(),
    ActivityProfile.dma_transfer(),
])

compute_profiles = st.builds(
    ActivityProfile.compute,
    cores_active=st.integers(0, 4),
    memory_intensity=st.floats(0.0, 1.0),
    dma_overlap=st.floats(0.0, 1.0),
)

profiles = st.one_of(canonical_profiles, compute_profiles)


@st.composite
def monotone_anchors(draw):
    """Strictly increasing (x, y) anchors plus a fit degree."""
    count = draw(st.integers(2, 6))
    steps = st.floats(1e-3, 10.0)
    x0 = draw(st.floats(-100.0, 100.0))
    y0 = draw(st.floats(-1e3, 1e3))
    xs, ys = [x0], [y0]
    for _ in range(count - 1):
        xs.append(xs[-1] + draw(steps))
        ys.append(ys[-1] + draw(steps) * draw(st.floats(1.0, 1e6)))
    assume(all(b > a for a, b in zip(xs, xs[1:])))
    assume(all(b > a for a, b in zip(ys, ys[1:])))
    degree = draw(st.integers(1, count - 1))
    return xs, ys, degree


# -- PolynomialInterpolator ---------------------------------------------------


class TestHornerMatchesPolyval:
    @given(st.floats(0.5, 1.0))
    def test_pulp_table_fit(self, voltage):
        fit = PolynomialInterpolator([p.voltage for p in PULP3_TABLE.points],
                                     [p.fmax for p in PULP3_TABLE.points],
                                     len(PULP3_TABLE.points) - 1)
        expected = float(np.polyval(fit.coefficients, voltage))
        assert _bits(fit(voltage)) == _bits(expected)
        assert _bits(PULP3_TABLE.fmax_at(voltage)) == _bits(expected)

    @settings(max_examples=200)
    @given(monotone_anchors(), st.floats(0.0, 1.0))
    def test_random_monotone_fits(self, anchors, where):
        xs, ys, degree = anchors
        try:
            fit = PolynomialInterpolator(xs, ys, degree)
        except OperatingPointError:
            assume(False)  # the fit itself is not monotone: no model
        x = fit.x_min + where * (fit.x_max - fit.x_min)
        x = min(max(x, fit.x_min), fit.x_max)
        expected = float(np.polyval(fit.coefficients, x))
        assert _bits(fit(x)) == _bits(expected)

    @settings(max_examples=100)
    @given(monotone_anchors(), st.floats(0.0, 1.0))
    def test_inverse_matches_reference(self, anchors, where):
        xs, ys, degree = anchors
        try:
            fit = PolynomialInterpolator(xs, ys, degree)
        except OperatingPointError:
            assume(False)
        reference = _ReferenceFit(xs, ys, degree)
        y_lo, y_hi = reference(reference.x_min), reference(reference.x_max)
        y = y_lo + where * (y_hi - y_lo)
        assert _bits(fit.inverse(y)) == _bits(reference.inverse(y))

    def test_returns_python_float(self):
        fit = PolynomialInterpolator([0, 1, 2], [0, 1, 4], degree=2)
        assert type(fit(np.float64(1.5))) is float
        assert type(fit(1)) is float


# -- the envelope solve -------------------------------------------------------


class TestNestedBisectionExact:
    @given(st.floats(mhz(1), PULP3_TABLE.f_max))
    def test_voltage_for(self, frequency):
        got = PULP3_TABLE.voltage_for(frequency)
        assert _bits(got) == _bits(REFERENCE.voltage_for(frequency))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-1e-3, mw(20)), profiles)
    def test_max_frequency_within(self, budget, activity):
        got = MODEL.max_frequency_within(budget, activity)
        expected = REFERENCE.max_frequency_within(budget, activity)
        assert tuple(map(_bits, got)) == tuple(map(_bits, expected))

    @given(st.floats(0.5, 1.0), profiles)
    def test_dynamic_density(self, voltage, activity):
        got = MODEL.dynamic_density(activity, voltage)
        assert _bits(got) == _bits(REFERENCE.dynamic_density(activity,
                                                             voltage))

    @given(st.floats(mhz(1), PULP3_TABLE.f_max), profiles)
    def test_power_at_frequency(self, frequency, activity):
        # This is the solve's per-step power.  A one-LSB difference in a
        # step rarely flips the bisection's comparison, so the solve's
        # result alone would not show it; compare the step itself.
        got = MODEL.power_at_frequency(frequency, activity)
        expected = REFERENCE.power_at_frequency(frequency, activity)
        assert _bits(got) == _bits(expected)


def test_unspecified_component_is_idle():
    chi = ActivityProfile.idle().chi(PulpComponent.CORE0)
    assert chi == StateFractions(idle=1.0, run=0.0, dma=0.0)
