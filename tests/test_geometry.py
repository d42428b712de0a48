import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heavytail_sre import alpha_norm, dilate, polar, subadditivity_constant

ALPHAS = np.array([1.0, 2.0])


def test_norm_oracle():
    # max(|3|^1, |2|^2) = 4
    assert alpha_norm([3.0, 2.0], ALPHAS) == 4.0


def test_dilate_oracle():
    np.testing.assert_allclose(dilate(4.0, [3.0, 2.0], ALPHAS), [12.0, 4.0])


def test_polar_oracle():
    s, omega = polar([12.0, 4.0], ALPHAS)
    assert s == 16.0
    np.testing.assert_allclose(omega, [0.75, 1.0])
    assert alpha_norm(omega, ALPHAS) == pytest.approx(1.0, rel=1e-14)


def test_subadditivity_constant_values():
    assert subadditivity_constant([1.0, 2.0]) == 2.0
    assert subadditivity_constant([0.5, 1.0]) == 1.0
    assert subadditivity_constant([3.0]) == 4.0


def test_polar_rejects_origin():
    with pytest.raises(ValueError):
        polar([0.0, 0.0], ALPHAS)


def test_dilate_rejects_bad_t():
    with pytest.raises(ValueError):
        dilate(0.0, [1.0, 1.0], ALPHAS)
    with pytest.raises(ValueError):
        dilate(-2.0, [1.0, 1.0], ALPHAS)


def test_norm_rejects_bad_weights_and_widths():
    for alphas, message in [([], "nonempty 1-d"), ([[1.0, 2.0]], "nonempty 1-d"),
                            ([1.0, 0.0], "strictly positive"), ([1.0, np.inf], "finite")]:
        with pytest.raises(ValueError, match=message):
            alpha_norm([1.0, 2.0], alphas)
    with pytest.raises(ValueError, match="2 coordinates on its last axis"):
        alpha_norm([1.0, 2.0, 3.0], ALPHAS)


def test_norm_batch_shape():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(100, 2))
    out = alpha_norm(x, ALPHAS)
    assert out.shape == (100,)
    assert np.all(out >= 0)


def test_overflow_guard_matches_log_path():
    # components beyond 1e{200/alpha} switch to the log route and stay finite
    assert alpha_norm([1e250], [0.5]) == pytest.approx(1e125, rel=1e-9)
    # hot row, uncapped: max(1e125, (1e60)^4) = 1e240
    v = alpha_norm(np.array([1e250, 1e60]), np.array([0.5, 4.0]))
    assert v == pytest.approx(1e240, rel=1e-9)
    # (1e80)^4 = 1e320 would overflow, so the result saturates at the cap
    w = alpha_norm(np.array([1e250, -1e80]), np.array([0.5, 4.0]))
    assert np.isfinite(w)
    assert w == pytest.approx(1e300, rel=1e-9)


def test_norm_caps_instead_of_inf():
    v = alpha_norm(np.array([1e300]), np.array([4.0]))
    assert np.isfinite(v)


# magnitudes below 1e-30 are snapped to zero so that products of powers
# never enter the subnormal range, where gradual underflow costs precision
finite_coord = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
).map(lambda v: 0.0 if abs(v) < 1e-30 else v)
alpha_vals = st.floats(min_value=0.3, max_value=4.0)
scales = st.floats(min_value=1e-6, max_value=1e6)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(finite_coord, min_size=1, max_size=4),
    st.data(),
    scales,
)
def test_homogeneity_property(coords, data, t):
    x = np.asarray(coords)
    al = np.asarray(data.draw(st.lists(alpha_vals, min_size=x.size, max_size=x.size)))
    lhs = alpha_norm(dilate(t, x, al), al)
    rhs = t * alpha_norm(x, al)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite_coord, min_size=1, max_size=4), st.data(), scales, scales)
def test_dilation_group_law(coords, data, s, t):
    x = np.asarray(coords)
    al = np.asarray(data.draw(st.lists(alpha_vals, min_size=x.size, max_size=x.size)))
    lhs = dilate(s, dilate(t, x, al), al)
    rhs = dilate(s * t, x, al)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite_coord, min_size=1, max_size=4), st.data())
def test_polar_round_trip(coords, data):
    x = np.asarray(coords)
    if not np.any(x != 0.0):
        return
    al = np.asarray(data.draw(st.lists(alpha_vals, min_size=x.size, max_size=x.size)))
    s, omega = polar(x, al)
    assert alpha_norm(omega, al) == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(dilate(s, omega, al), x, rtol=1e-12, atol=1e-290)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(finite_coord, min_size=1, max_size=4),
    st.lists(finite_coord, min_size=1, max_size=4),
    st.data(),
)
def test_quasi_subadditivity(xs, ys, data):
    d = min(len(xs), len(ys))
    x, y = np.asarray(xs[:d]), np.asarray(ys[:d])
    al = np.asarray(data.draw(st.lists(alpha_vals, min_size=d, max_size=d)))
    c = subadditivity_constant(al)
    lhs = alpha_norm(x + y, al)
    rhs = c * (alpha_norm(x, al) + alpha_norm(y, al))
    assert lhs <= rhs * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "alphas", [[2.0, 2.0, 2.0], [2.0, 1.0, 0.5], [1.9999999999999998, 2.34, 1.75]]
)
def test_alpha_norm_bytes_do_not_depend_on_memory_layout(alphas):
    x = np.random.default_rng(3).standard_cauchy((20_000, 3))
    x[:3] = [[1e160, 0.0, 1.0], [-1e250, 1e-300, 2.0], [0.0, 0.0, 0.0]]
    rows = alpha_norm(np.ascontiguousarray(x), alphas)
    cols = alpha_norm(np.asfortranarray(x), alphas)
    assert rows.tobytes() == cols.tobytes()
