import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stopsim import (
    BranchCensus,
    GridMismatchError,
    HysteresisConfig,
    InvalidConfigError,
    InvalidSignalError,
    PiecewiseLinearSignal,
    StopCursor,
    branch_census,
    stop_concatenate,
    stop_directional_derivative,
    stop_evaluate,
)
from stopsim.hysteresis import AT_A, AT_B, INTERIOR, TIE_A, TIE_B, _omega_step

from conftest import random_signal
from oracles import (
    insert_midpoints,
    play_reference,
    stop_derivative_reference,
    stop_derivative_step,
    stop_reference,
)


def signal(times, values):
    return PiecewiseLinearSignal(times=np.asarray(times, dtype=float),
                                 values=np.asarray(values, dtype=float))


class TestFrozenCases:
    def test_triangle_wave_matches_hand_recursion(self, hyst_cfg):
        times = np.arange(17) * 0.25
        values = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 1.5, 1.0, 0.5, 0.0,
                           -0.5, -1.0, -1.5, -2.0, -1.5, -1.0, -0.5, 0.0])
        expected_stop = np.array([0.0, 0.5, 1.0, 1.0, 1.0, 0.5, 0.0, -0.5,
                                  -1.0, -1.0, -1.0, -1.0, -1.0, -0.5, 0.0,
                                  0.5, 1.0])
        expected_play = np.array([0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0,
                                  1.0, 0.5, 0.0, -0.5, -1.0, -1.0, -1.0,
                                  -1.0, -1.0])
        out = stop_evaluate(signal(times, values), hyst_cfg)
        np.testing.assert_array_equal(out.stop.values, expected_stop)
        np.testing.assert_array_equal(out.play.values, expected_play)

    def test_monotone_ramp_tracks_input_then_pins(self, hyst_cfg):
        times = np.linspace(0.0, 2.0, 21)
        out = stop_evaluate(signal(times, times), hyst_cfg)
        np.testing.assert_allclose(out.stop.values, np.minimum(times, 1.0),
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(out.play.values, np.maximum(times - 1.0, 0.0),
                                   rtol=0.0, atol=1e-12)

    def test_single_point_signal(self):
        cfg = HysteresisConfig(a=-1.0, b=1.0, z0=0.25)
        out = stop_evaluate(signal([0.7], [3.0]), cfg)
        np.testing.assert_array_equal(out.stop.values, [0.25])
        np.testing.assert_array_equal(out.play.values, [0.0])
        der = stop_directional_derivative(signal([0.7], [3.0]),
                                          signal([0.7], [5.0]), cfg)
        np.testing.assert_array_equal(der.derivative, [0.0])

    def test_nonzero_initial_state_offsets_play(self):
        cfg = HysteresisConfig(a=0.0, b=2.0, z0=1.0)
        out = stop_evaluate(signal([0.0, 1.0], [5.0, 5.5]), cfg)
        np.testing.assert_array_equal(out.stop.values, [1.0, 1.5])
        np.testing.assert_array_equal(out.play.values, [0.0, 0.0])


class TestAgainstReference:
    def test_random_signals_match_z_form_recursion(self, hyst_cfg):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sig = random_signal(rng)
            out = stop_evaluate(sig, hyst_cfg)
            np.testing.assert_allclose(
                out.stop.values,
                stop_reference(sig.values, hyst_cfg.a, hyst_cfg.b, hyst_cfg.z0),
                rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(
                out.play.values,
                play_reference(sig.values, hyst_cfg.a, hyst_cfg.b, hyst_cfg.z0),
                rtol=0.0, atol=1e-12)

    def test_asymmetric_bounds_and_offset_start(self):
        cfg = HysteresisConfig(a=-0.3, b=1.7, z0=0.4)
        rng = np.random.default_rng(8)
        for _ in range(25):
            sig = random_signal(rng, amplitude=3.0)
            out = stop_evaluate(sig, cfg)
            np.testing.assert_allclose(
                out.stop.values, stop_reference(sig.values, cfg.a, cfg.b, cfg.z0),
                rtol=0.0, atol=1e-12)


class TestInvariants:
    def test_output_confined_to_bounds(self, hyst_cfg):
        rng = np.random.default_rng(9)
        for _ in range(50):
            out = stop_evaluate(random_signal(rng, amplitude=5.0), hyst_cfg)
            assert np.all(out.stop.values >= hyst_cfg.a)
            assert np.all(out.stop.values <= hyst_cfg.b)

    def test_lipschitz_bound_on_random_pairs(self, hyst_cfg):
        rng = np.random.default_rng(10)
        for _ in range(100):
            base = random_signal(rng, n_points=60)
            shift = rng.uniform(-0.5, 0.5, 60)
            other = PiecewiseLinearSignal(times=base.times,
                                          values=base.values + shift)
            dz = np.abs(stop_evaluate(base, hyst_cfg).stop.values
                        - stop_evaluate(other, hyst_cfg).stop.values)
            assert dz.max() <= 2.0 * np.abs(shift).max()

    def test_growth_bound(self):
        cfg = HysteresisConfig(a=-100.0, b=100.0, z0=0.7)
        rng = np.random.default_rng(11)
        for _ in range(50):
            sig = random_signal(rng, amplitude=3.0)
            out = stop_evaluate(sig, cfg)
            bound = 2.0 * np.abs(sig.values).max() + abs(cfg.z0)
            assert np.abs(out.stop.values).max() <= bound + 1e-12

    def test_monotone_input_gives_monotone_stop(self, hyst_cfg):
        times = np.linspace(0.0, 1.0, 30)
        values = np.cumsum(np.abs(np.sin(np.arange(30))))
        out = stop_evaluate(signal(times, values), hyst_cfg)
        assert np.all(np.diff(out.stop.values) >= 0.0)


class TestRateIndependence:
    def test_midpoint_insertion_is_bitwise_invariant(self, hyst_cfg):
        rng = np.random.default_rng(12)
        for _ in range(50):
            sig = random_signal(rng)
            segs = rng.choice(len(sig) - 1, size=10, replace=False)
            rt, rv = insert_midpoints(sig.times, sig.values, segs)
            refined = stop_evaluate(signal(rt, rv), hyst_cfg)
            original = stop_evaluate(sig, hyst_cfg)
            keep = np.isin(rt, sig.times)
            np.testing.assert_array_equal(refined.stop.values[keep],
                                          original.stop.values)

    def test_time_reparametrization_changes_nothing(self, hyst_cfg):
        rng = np.random.default_rng(13)
        sig = random_signal(rng)
        warped = PiecewiseLinearSignal(times=np.exp(sig.times),
                                       values=sig.values)
        np.testing.assert_array_equal(stop_evaluate(sig, hyst_cfg).stop.values,
                                      stop_evaluate(warped, hyst_cfg).stop.values)

    def test_split_and_continue_is_bitwise_exact(self, hyst_cfg):
        rng = np.random.default_rng(14)
        for _ in range(50):
            sig = random_signal(rng)
            k = int(rng.integers(1, len(sig) - 1))
            whole = stop_evaluate(sig, hyst_cfg)
            prefix = stop_evaluate(
                PiecewiseLinearSignal(sig.times[:k + 1], sig.values[:k + 1]),
                hyst_cfg)
            joined = stop_concatenate(
                prefix,
                PiecewiseLinearSignal(sig.times[k:], sig.values[k:]),
                hyst_cfg)
            np.testing.assert_array_equal(joined.stop.values, whole.stop.values)
            np.testing.assert_array_equal(joined.play.values, whole.play.values)
            np.testing.assert_array_equal(joined.stop.times, whole.stop.times)

    def test_concatenate_single_point_tail_returns_prefix(self, hyst_cfg):
        sig = signal([0.0, 1.0, 2.0], [0.0, 2.0, -1.0])
        prefix = stop_evaluate(sig, hyst_cfg)
        joined = stop_concatenate(prefix, signal([2.0], [-1.0]), hyst_cfg)
        assert joined is prefix

    def test_chained_concatenation_over_many_pieces(self, hyst_cfg):
        rng = np.random.default_rng(15)
        sig = random_signal(rng, n_points=80)
        whole = stop_evaluate(sig, hyst_cfg)
        cuts = [0, 11, 30, 31, 55, 79]
        acc = stop_evaluate(
            PiecewiseLinearSignal(sig.times[:cuts[1] + 1],
                                  sig.values[:cuts[1] + 1]), hyst_cfg)
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            acc = stop_concatenate(
                acc, PiecewiseLinearSignal(sig.times[lo:hi + 1],
                                           sig.values[lo:hi + 1]), hyst_cfg)
        np.testing.assert_array_equal(acc.stop.values, whole.stop.values)


class TestHomogeneity:
    @pytest.mark.parametrize("lam", [0.25, 0.5, 2.0, 8.0])
    def test_power_of_two_scaling_is_exact(self, lam):
        cfg = HysteresisConfig(a=-1.0, b=1.5, z0=0.25)
        scaled_cfg = HysteresisConfig(a=lam * cfg.a, b=lam * cfg.b,
                                      z0=lam * cfg.z0)
        rng = np.random.default_rng(16)
        for _ in range(20):
            sig = random_signal(rng)
            scaled = PiecewiseLinearSignal(times=sig.times,
                                           values=lam * sig.values)
            np.testing.assert_array_equal(
                stop_evaluate(scaled, scaled_cfg).stop.values,
                lam * stop_evaluate(sig, cfg).stop.values)


class TestDirectionalDerivative:
    def test_strictly_interior_is_plain_increment_sum(self, hyst_cfg):
        v = signal([0.0, 1.0, 2.0, 3.0], [0.0, 0.3, -0.2, 0.4])
        h = signal([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, -2.0, 0.5])
        der = stop_directional_derivative(v, h, hyst_cfg)
        np.testing.assert_array_equal(der.derivative, h.values - h.values[0])

    def test_tie_at_upper_bound_keeps_only_inward_rates(self, hyst_cfg):
        v = signal([0.0, 1.0, 2.0], [0.0, 1.0, 0.5])
        up = signal([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
        down = signal([0.0, 1.0, 2.0], [0.0, -1.0, -1.0])
        assert list(stop_directional_derivative(v, up, hyst_cfg).derivative) \
            == [0.0, 0.0, 0.0]
        assert list(stop_directional_derivative(v, down, hyst_cfg).derivative) \
            == [0.0, -1.0, -1.0]

    def test_tie_at_lower_bound_mirrors(self, hyst_cfg):
        v = signal([0.0, 1.0, 2.0], [0.0, -1.0, -0.5])
        up = signal([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
        down = signal([0.0, 1.0, 2.0], [0.0, -1.0, -1.0])
        assert list(stop_directional_derivative(v, up, hyst_cfg).derivative) \
            == [0.0, 1.0, 1.0]
        assert list(stop_directional_derivative(v, down, hyst_cfg).derivative) \
            == [0.0, 0.0, 0.0]

    def test_strict_overshoot_erases_the_direction(self, hyst_cfg):
        v = signal([0.0, 1.0, 2.0], [0.0, 2.0, 1.5])
        h = signal([0.0, 1.0, 2.0], [0.0, 5.0, 4.0])
        der = stop_directional_derivative(v, h, hyst_cfg)
        np.testing.assert_array_equal(der.derivative, [0.0, 0.0, -1.0])

    def test_matches_z_form_reference_on_guarded_signals(self, hyst_cfg):
        rng = np.random.default_rng(17)
        kept = 0
        while kept < 40:
            v = random_signal(rng)
            h = random_signal(rng)
            h = PiecewiseLinearSignal(times=v.times, values=h.values)
            z = stop_reference(v.values, hyst_cfg.a, hyst_cfg.b, hyst_cfg.z0)
            x = z[:-1] + np.diff(v.values)
            margin = np.minimum(np.abs(x - hyst_cfg.a), np.abs(x - hyst_cfg.b))
            if margin.min() < 1e-8:
                continue
            kept += 1
            der = stop_directional_derivative(v, h, hyst_cfg)
            ref = stop_derivative_reference(v.values, h.values,
                                            hyst_cfg.a, hyst_cfg.b, hyst_cfg.z0)
            np.testing.assert_allclose(der.derivative, ref, rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(der.base_stop, z, rtol=0.0, atol=1e-12)

    def test_matches_difference_quotient(self, hyst_cfg):
        rng = np.random.default_rng(18)
        lam = 1e-6
        kept = 0
        while kept < 25:
            v = random_signal(rng)
            h = random_signal(rng, amplitude=1.0)
            h = PiecewiseLinearSignal(times=v.times, values=h.values)
            z = stop_reference(v.values, hyst_cfg.a, hyst_cfg.b, hyst_cfg.z0)
            x = z[:-1] + np.diff(v.values)
            margin = np.minimum(np.abs(x - hyst_cfg.a), np.abs(x - hyst_cfg.b))
            if margin.min() < 1e-4:
                continue
            kept += 1
            der = stop_directional_derivative(v, h, hyst_cfg).derivative
            bumped = PiecewiseLinearSignal(times=v.times,
                                           values=v.values + lam * h.values)
            quotient = (stop_evaluate(bumped, hyst_cfg).stop.values
                        - stop_evaluate(v, hyst_cfg).stop.values) / lam
            np.testing.assert_allclose(der, quotient, rtol=0.0, atol=1e-6)

    def test_positive_homogeneity_of_the_derivative(self, hyst_cfg):
        rng = np.random.default_rng(19)
        v = random_signal(rng)
        h = PiecewiseLinearSignal(times=v.times,
                                  values=random_signal(rng).values)
        doubled = PiecewiseLinearSignal(times=v.times, values=2.0 * h.values)
        np.testing.assert_array_equal(
            stop_directional_derivative(v, doubled, hyst_cfg).derivative,
            2.0 * stop_directional_derivative(v, h, hyst_cfg).derivative)


def carried_offsets(values, cfg):
    """Offsets w_k of the stop recursion along ``values``, w_0 included."""
    cur = StopCursor(cfg, values[0])
    offsets = [cur.w]
    for v in values[1:]:
        cur.advance(v)
        offsets.append(cur.w)
    return np.array(offsets)


class TestBranchCensus:
    def test_frozen_path(self, hyst_cfg):
        values = np.array([0.0, 1.0, 0.5, 2.0, -0.5, -1.0, -3.0])
        census = branch_census(hyst_cfg, carried_offsets(values, hyst_cfg), values)
        np.testing.assert_array_equal(
            census.steps, [TIE_B, INTERIOR, AT_B, AT_A, AT_A, AT_A])
        assert (census.interior, census.at_a, census.at_b, census.tie) == (1, 3, 1, 1)
        assert isinstance(census, BranchCensus)

    def test_takes_the_branches_of_the_derivative_rule(self, hyst_cfg):
        # On a half-integer grid the offsets land exactly on the moving
        # bounds often.  Probing the scalar rule with omega = +1 and -1 and
        # a zero input rate tells its branches apart: interior keeps both,
        # a reset drops both, a tie keeps only the inward one.  The carry
        # rule on the census codes gives the same outcomes.
        rng = np.random.default_rng(21)
        outcomes = {INTERIOR: (1.0, -1.0), AT_A: (0.0, 0.0), AT_B: (0.0, 0.0),
                    TIE_A: (1.0, 0.0), TIE_B: (0.0, -1.0)}
        seen = set()
        for _ in range(20):
            values = 0.5 * rng.integers(-6, 7, 30).astype(float)
            offsets = carried_offsets(values, hyst_cfg)
            stop = stop_evaluate(signal(np.arange(30.0), values), hyst_cfg).stop.values
            census = branch_census(hyst_cfg, offsets, values)
            assert census.interior + census.at_a + census.at_b + census.tie == 29
            for k, branch in enumerate(census.steps, start=1):
                probe = tuple(stop_derivative_step(hyst_cfg.a, hyst_cfg.b, offsets[k - 1],
                                                   values[k], omega, 0.0)
                              for omega in (1.0, -1.0))
                assert probe == outcomes[branch]
                assert tuple(_omega_step(branch, omega, 0.0) for omega in (1.0, -1.0)) == probe
                if branch == AT_A:
                    assert stop[k] == hyst_cfg.a
                if branch == AT_B:
                    assert stop[k] == hyst_cfg.b
                seen.add(int(branch))
        assert seen == {INTERIOR, AT_A, AT_B, TIE_A, TIE_B}


@st.composite
def short_signals(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    values = draw(st.lists(
        st.floats(min_value=-10.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n))
    return np.arange(n, dtype=float), np.asarray(values)


@st.composite
def replay_cases(draw):
    """A signal, a direction and a config for the cursor replay.

    Some signals sit on a half-integer grid with half-integer bounds, so
    offsets land exactly on the moving bounds; some repeat values near
    1e20 with bounds +-0.05, where a - v and b - v round to the same float
    and a tie sits on both bounds at once.  The directions mix +0.0 and
    -0.0 with other rates, and a may be -0.0.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    kind = draw(st.sampled_from(["grid", "float", "huge"]))
    if kind == "grid":
        steps = st.integers(min_value=-6, max_value=6).map(lambda i: 0.5 * i)
    elif kind == "float":
        steps = st.floats(min_value=-10.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False)
    else:
        steps = st.sampled_from([1e20, -1e20, 1e20 + 2**14, 3e20, 0.0])
    values = np.array(draw(st.lists(steps, min_size=n, max_size=n)), dtype=float)
    rates = np.array(draw(st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])
        | st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        min_size=n, max_size=n)), dtype=float)
    if kind == "huge":
        a, b = -0.05, 0.05
    else:
        a = draw(st.sampled_from([-1.0, -0.5, -0.0]))
        b = a + draw(st.sampled_from([0.5, 1.0, 2.0]))
    z0 = draw(st.sampled_from([a, b, 0.5 * (a + b)]))
    return values, rates, HysteresisConfig(a=a, b=b, z0=z0)


def cursor_replay(cfg, values, rates):
    """Stop values, carried offsets and derivative, one cursor step at a time,
    the derivative by the oracle's scalar rule."""
    cur = StopCursor(cfg, values[0])
    stop, offsets, zeta = [cfg.z0], [cur.w], [0.0]
    omega = -rates[0]
    for k in range(1, values.size):
        w_prev = cur.w
        stop.append(cur.advance(values[k]))
        offsets.append(cur.w)
        omega = stop_derivative_step(cfg.a, cfg.b, w_prev, values[k], omega, rates[k])
        zeta.append(omega + rates[k])
    return np.array(stop), np.array(offsets), np.array(zeta)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestPropertyBased:
    @given(short_signals())
    @settings(max_examples=200, deadline=None)
    def test_stop_stays_in_bounds_and_matches_reference(self, data):
        times, values = data
        cfg = HysteresisConfig(a=-1.0, b=1.0, z0=0.0)
        out = stop_evaluate(PiecewiseLinearSignal(times, values), cfg)
        assert np.all(out.stop.values >= cfg.a)
        assert np.all(out.stop.values <= cfg.b)
        np.testing.assert_allclose(
            out.stop.values, stop_reference(values, cfg.a, cfg.b, cfg.z0),
            rtol=0.0, atol=1e-12)

    @given(short_signals(), st.floats(min_value=-1.0, max_value=1.0,
                                      allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_uniform_shift_moves_stop_by_at_most_twice(self, data, shift):
        times, values = data
        cfg = HysteresisConfig(a=-1.0, b=1.0, z0=0.0)
        base = stop_evaluate(PiecewiseLinearSignal(times, values), cfg)
        moved = stop_evaluate(PiecewiseLinearSignal(times, values + shift), cfg)
        dz = np.abs(base.stop.values - moved.stop.values).max()
        assert dz <= 2.0 * abs(shift) + 1e-12

    @given(short_signals())
    @settings(max_examples=200, deadline=None)
    def test_play_plus_stop_reconstructs_the_input(self, data):
        times, values = data
        cfg = HysteresisConfig(a=-0.5, b=1.5, z0=0.5)
        out = stop_evaluate(PiecewiseLinearSignal(times, values), cfg)
        np.testing.assert_allclose(
            out.stop.values + out.play.values,
            values + (cfg.z0 - values[0]), rtol=0.0, atol=1e-12)

    @given(replay_cases())
    @settings(max_examples=300, deadline=None)
    def test_whole_signal_functions_match_the_cursor_replay(self, case):
        values, rates, cfg = case
        times = np.arange(values.size, dtype=float)
        stop, offsets, zeta = cursor_replay(cfg, values, rates)
        play = (values - stop) + (cfg.z0 - values[0])

        def check(out, k):
            """``out`` is the evaluation along the first k + 1 points."""
            assert bits(out.stop.values) == bits(stop[:k + 1])
            assert bits(out.play.values) == bits(play[:k + 1])
            assert bits(out.stop.times) == bits(times[:k + 1])
            assert bits(out.resume_offset) == bits(offsets[k])
            assert bits(out.resume_input) == bits(values[k])

        n = values.size
        check(stop_evaluate(PiecewiseLinearSignal(times, values), cfg), n - 1)
        for k in range(n):
            prefix = stop_evaluate(PiecewiseLinearSignal(times[:k + 1], values[:k + 1]), cfg)
            check(prefix, k)
            check(stop_concatenate(prefix, PiecewiseLinearSignal(times[k:], values[k:]), cfg),
                  n - 1)
        der = stop_directional_derivative(PiecewiseLinearSignal(times, values),
                                          PiecewiseLinearSignal(times, rates), cfg)
        assert bits(der.base_stop) == bits(stop)
        assert bits(der.derivative) == bits(zeta)


class TestValidation:
    def test_signal_rejects_bad_inputs(self):
        with pytest.raises(InvalidSignalError):
            PiecewiseLinearSignal(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(InvalidSignalError):
            PiecewiseLinearSignal(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(InvalidSignalError):
            PiecewiseLinearSignal(np.array([0.0, 1.0]), np.array([1.0, np.nan]))
        with pytest.raises(InvalidSignalError):
            PiecewiseLinearSignal(np.array([]), np.array([]))

    def test_config_rejects_bad_bounds(self):
        with pytest.raises(InvalidConfigError):
            HysteresisConfig(a=1.0, b=1.0, z0=1.0)
        with pytest.raises(InvalidConfigError):
            HysteresisConfig(a=-1.0, b=1.0, z0=2.0)
        with pytest.raises(InvalidConfigError):
            HysteresisConfig(a=-np.inf, b=1.0, z0=0.0)

    def test_derivative_requires_shared_grid(self, hyst_cfg):
        v = signal([0.0, 1.0], [0.0, 1.0])
        h = signal([0.0, 2.0], [0.0, 1.0])
        with pytest.raises(GridMismatchError):
            stop_directional_derivative(v, h, hyst_cfg)

    def test_concatenate_rejects_mismatches(self, hyst_cfg):
        prefix = stop_evaluate(signal([0.0, 1.0], [0.0, 0.5]), hyst_cfg)
        with pytest.raises(GridMismatchError):
            stop_concatenate(prefix, signal([2.0, 3.0], [0.5, 1.0]), hyst_cfg)
        with pytest.raises(GridMismatchError):
            stop_concatenate(prefix, signal([1.0, 2.0], [0.7, 1.0]), hyst_cfg)
        other_cfg = HysteresisConfig(a=-2.0, b=2.0, z0=0.0)
        with pytest.raises(InvalidConfigError):
            stop_concatenate(prefix, signal([1.0, 2.0], [0.5, 1.0]), other_cfg)

    @pytest.mark.parametrize("values, t", [([1e308, -1e308], 1.0),
                                           ([1e308, 1e308, 0.0, -1e308, 0.0], 3.0)])
    def test_a_play_that_overflows_is_refused_at_its_first_time(self, hyst_cfg, values, t):
        # every entry is finite; the play v - stop + (z0 - v0) is not
        sig = signal(np.arange(len(values), dtype=float), values)
        with pytest.raises(InvalidSignalError) as info:
            stop_evaluate(sig, hyst_cfg)
        assert str(info.value) == f"play v - stop + (z0 - v0) is not finite from t = {t}"
        assert info.value.exit_code == 2

    def test_signal_arrays_are_read_only(self, hyst_cfg):
        sig = signal([0.0, 1.0], [0.0, 0.5])
        with pytest.raises(ValueError):
            sig.values[0] = 3.0
        out = stop_evaluate(sig, hyst_cfg)
        with pytest.raises(ValueError):
            out.stop.values[0] = 3.0


def test_play_is_the_input_minus_the_stop(hyst_cfg):
    sig = signal([0.0, 1.0, 2.0], [0.0, 2.0, -2.0])
    out = stop_evaluate(sig, hyst_cfg)
    np.testing.assert_array_equal(out.play.values, [0.0, 1.0, -1.0])
    np.testing.assert_array_equal(out.play.values,
                                  (sig.values - out.stop.values) + out.play_offset)
