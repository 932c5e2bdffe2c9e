import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mplangc.activations import (
    ABS,
    ID,
    RELU,
    SIGMOID,
    SIN,
    TANH,
    Merged,
    Named,
    PiecewiseLinear,
    ReluSum,
    activation_from_json,
    activation_to_json,
    apply,
    apply_vec,
    interpolation_error,
    interval_image,
    merge,
    modulus_delta,
    pl_to_relu_sum,
    relu_approximate,
)
from mplangc.activations import _grid_cells
from mplangc.errors import CertificateError
from mplangc.intervals import Interval

CLAMP01 = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0)))
IDENTITY_SUM = ReluSum(((1.0, 0.0, 1.0), (-1.0, 0.0, -1.0)))
FIG_MERGED = Merged(TANH, 3.0, ID, -2.0)

CATALOG = [
    ID,
    RELU,
    TANH,
    SIGMOID,
    SIN,
    ABS,
    CLAMP01,
    IDENTITY_SUM,
    ReluSum(((2.0, 1.0, -0.5), (0.0, -1.0, 3.0))),
    PiecewiseLinear(((-2.0, 1.0), (0.0, -1.0), (1.5, 2.0))),
    FIG_MERGED,
    Merged(SIN, 1.0, FIG_MERGED, -4.0),
]


# -- apply ---------------------------------------------------------------------

def test_relu_clamps_negative():
    assert apply(RELU, -2.0) == 0.0


def test_relu_sum_identity():
    # relu(x) - relu(-x) reproduces x
    assert apply(IDENTITY_SUM, -2.0) == -2.0
    assert apply(IDENTITY_SUM, 3.5) == 3.5


def test_merged_left_piece_shift():
    # Left piece evaluates tanh(x + 3 + 1): zero at x = -4.
    assert apply(FIG_MERGED, -4.0) == math.tanh(0.0) == 0.0


def test_merged_right_piece_shift():
    # Right piece evaluates x - 2 - 1: -2 at x = 1.
    assert apply(FIG_MERGED, 1.0) == -2.0


def test_named_functions_scalar_values():
    assert apply(ID, -1.5) == -1.5
    assert apply(TANH, 0.0) == 0.0
    assert apply(SIGMOID, 0.0) == 0.5
    assert apply(SIN, math.pi / 2) == pytest.approx(1.0)
    assert apply(ABS, -4.0) == 4.0


def test_sigmoid_stable_at_extremes():
    assert apply(SIGMOID, -1000.0) == pytest.approx(0.0, abs=1e-300)
    assert apply(SIGMOID, 1000.0) == pytest.approx(1.0)


def test_piecewise_linear_interpolates_and_extends():
    assert apply(CLAMP01, -5.0) == 0.0
    assert apply(CLAMP01, 0.25) == 0.25
    assert apply(CLAMP01, 5.0) == 1.0


def test_apply_vec_matches_scalar():
    xs = np.linspace(-3, 3, 41)
    for f in CATALOG:
        vec = apply_vec(f, xs)
        for x, v in zip(xs, vec):
            assert v == apply(f, float(x))


# -- interval images -------------------------------------------------------------

def test_relu_interval():
    assert interval_image(RELU, Interval(-3.0, 2.0)) == Interval(0.0, 2.0)


def test_sin_interval_full_period():
    assert interval_image(SIN, Interval(0.0, 10.0)) == Interval(-1.0, 1.0)


def test_tanh_interval_monotone():
    img = interval_image(TANH, Interval(0.0, 1.0))
    assert img == Interval(0.0, math.tanh(1.0))
    # independent dense-sampling oracle
    samples = np.tanh(np.linspace(0.0, 1.0, 10_000))
    assert img.lo == pytest.approx(samples.min(), abs=1e-12)
    assert img.hi == pytest.approx(samples.max(), abs=1e-4)


def test_sin_interval_interior_extremum():
    img = interval_image(SIN, Interval(1.0, 2.0))  # contains pi/2
    assert img.hi == 1.0
    assert img.lo == pytest.approx(min(math.sin(1.0), math.sin(2.0)))


@pytest.mark.parametrize("f", CATALOG, ids=str)
def test_interval_image_sound(f):
    rng = np.random.default_rng(2024)
    for _ in range(20):
        a, b = np.sort(rng.uniform(-6.0, 6.0, size=2))
        iv = Interval(float(a), float(b))
        img = interval_image(f, iv)
        xs = rng.uniform(iv.lo, iv.hi, size=500)
        vals = apply_vec(f, xs)
        slack = 1e-9 * (1.0 + np.abs(vals))
        assert (vals >= img.lo - slack).all() and (vals <= img.hi + slack).all()


# -- merge -----------------------------------------------------------------------

def test_merge_seam_values_match_figure():
    m = merge(TANH, 3.0, ID, -2.0)
    assert apply(m, -1.0) == pytest.approx(math.tanh(3.0))  # ~0.99505
    assert apply(m, 1.0) == pytest.approx(-2.0)


def test_merge_identity_pair():
    m = merge(ID, 0.0, ID, 0.0)
    assert apply(m, -2.0) == -1.0  # left piece: x + 0 + 1


def test_merge_reproduces_left_under_shift():
    m = merge(TANH, 3.0, ID, -2.0)
    xs = np.linspace(-10.0, 3.0, 1000)
    shifted = apply_vec(m, xs - (3.0 + 1.0))
    expected = np.tanh(xs)
    assert np.abs(shifted - expected).max() <= 1e-12


def test_merge_reproduces_right_under_shift():
    m = merge(TANH, 3.0, ID, -2.0)
    xs = np.linspace(-2.0, 10.0, 1000)
    shifted = apply_vec(m, xs + (1.0 - (-2.0)))
    assert np.abs(shifted - xs).max() <= 1e-12


@pytest.mark.parametrize("m", [FIG_MERGED, Merged(SIN, 1.0, FIG_MERGED, -4.0)])
def test_merged_continuous_at_seams(m):
    for seam in (-1.0, 1.0):
        inner = apply(m, seam)
        for side in (seam - 1e-9, seam + 1e-9):
            assert apply(m, side) == pytest.approx(inner, abs=1e-6)


def test_merged_bridge_is_linear():
    vals = apply_vec(FIG_MERGED, np.array([-1.0, 0.0, 1.0]))
    assert vals[1] == pytest.approx((vals[0] + vals[2]) / 2.0)


def _merged_by_definition(f, x: float, seams: dict) -> float:
    """Piecewise definition of a merged activation, written out on scalars."""
    if not isinstance(f, Merged):
        return {"tanh": math.tanh, "sin": math.sin, "abs": abs}[f.name](x)
    if id(f) not in seams:
        seams[id(f)] = (_merged_by_definition(f.left, f.left_max, seams),
                        _merged_by_definition(f.right, f.right_min, seams))
    seam_left, seam_right = seams[id(f)]
    if x <= -1.0:
        return _merged_by_definition(f.left, x + f.left_max + 1.0, seams)
    if x >= 1.0:
        return _merged_by_definition(f.right, x + f.right_min - 1.0, seams)
    return seam_left + (x + 1.0) * 0.5 * (seam_right - seam_left)


def test_deep_merge_chain_matches_piecewise_definition():
    # Each level shifts the left piece by +1, so -k-0.5 reaches level k's bridge.
    chain = TANH
    for k in range(24):
        chain = merge(chain, 0.0, (SIN, ABS)[k % 2], -0.5 * k)
    xs = [-30.0, -20.5, -12.25, -3.0, -1.0, -0.4, 0.7, 1.0, 2.5]
    got = apply_vec(chain, np.array(xs))
    for x, value in zip(xs, got):
        assert value == pytest.approx(_merged_by_definition(chain, x, {}), abs=1e-12)


# -- pl_to_relu_sum ----------------------------------------------------------------

def test_pl_to_relu_sum_clamp():
    rs = pl_to_relu_sum(CLAMP01)
    for x in (-1.0, 0.5, 2.0):
        assert apply(rs, x) == pytest.approx(apply(CLAMP01, x), abs=1e-12)


def test_pl_to_relu_sum_flat():
    rs = pl_to_relu_sum(PiecewiseLinear(((0.0, 2.5),)))
    assert rs == ReluSum(((0.0, -1.0, 2.5),))
    assert apply(rs, -100.0) == 2.5


def test_pl_to_relu_sum_grid_oracle():
    # PL sampled from relu itself agrees with relu on its span.
    xs = np.linspace(-4.0, 4.0, 9)
    pl = PiecewiseLinear(tuple(zip(xs.tolist(), np.maximum(0.0, xs).tolist())))
    rs = pl_to_relu_sum(pl)
    grid = np.linspace(-4.0, 4.0, 777)
    assert np.abs(apply_vec(rs, grid) - np.maximum(0.0, grid)).max() <= 1e-12


def test_pl_to_relu_sum_breakpoints_and_midpoints():
    pl = PiecewiseLinear(((-2.0, 1.0), (0.0, -1.0), (1.5, 2.0), (3.0, 2.0)))
    rs = pl_to_relu_sum(pl)
    xs = [p[0] for p in pl.points]
    probes = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    for x in probes:
        assert apply(rs, x) == pytest.approx(apply(pl, x), abs=1e-12)


def _per_knot_hinges(points):
    """The per-knot loop that pl_to_relu_sum and relu_approximate ran before
    their one numpy step, kept as an oracle for their terms, bit for bit."""
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    terms = [(0.0, -1.0, ys[0])] if ys[0] != 0.0 else []
    prev_slope = 0.0
    for j in range(len(xs)):
        slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) if j < len(xs) - 1 else 0.0
        if slope - prev_slope != 0.0:
            terms.append((1.0, xs[j], slope - prev_slope))
        prev_slope = slope
    return tuple(terms)


@pytest.mark.parametrize("points", [
    ((0.0, 0.0),),  # a single knot at zero: no terms
    ((1.5, -2.5),),  # a single knot: one level term
    ((-1.0, 0.0), (0.0, 0.0), (2.0, 0.0)),  # all zero
    ((-3.0, -1.5), (-1.0, -0.5), (0.0, 0.0), (1.0, 0.5), (4.0, 2.0)),  # one repeated slope
    ((-2.0, 1.0), (0.0, -1.0), (1.0, -1.0), (1.5, 2.0), (3.0, 2.0)),
    ((0.0, 0.0), (5e-324, 1.0), (1e-323, 2.0)),  # subnormal steps: inf slopes, a nan turn
    ((0.0, -1e308), (1.0, 1e308)),  # the rise overflows
])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # quiet, as the loop's float arithmetic was
def test_hinges_match_the_per_knot_loop(points):
    assert repr(pl_to_relu_sum(PiecewiseLinear(points)).terms) == repr(_per_knot_hinges(points))


# Knots a subnormal step apart overflow a slope to inf, in both forms alike, with no warning.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    xs=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=12, unique=True),
    ys=st.lists(st.sampled_from([0.0, 1.0, -2.5]) | st.floats(-10.0, 10.0),
                min_size=12, max_size=12),
    collinear=st.booleans(),
)
def test_hinges_match_the_per_knot_loop_on_random_knots(xs, ys, collinear):
    xs = sorted(xs)
    ys = [0.5 * x - 1.0 for x in xs] if collinear else ys[:len(xs)]
    points = tuple(zip(xs, ys))
    assert repr(pl_to_relu_sum(PiecewiseLinear(points)).terms) == repr(_per_knot_hinges(points))


@settings(max_examples=200, deadline=None)
@given(
    f=st.sampled_from([SIN, TANH, SIGMOID]),
    lo=st.sampled_from([0.0, -math.pi]) | st.floats(-50.0, 50.0),
    width=st.sampled_from([0.0]) | st.floats(1e-3, 50.0),
    eps=st.floats(1e-4, 1.0),
)
def test_interpolants_match_the_per_knot_loop(f, lo, width, eps):
    # tanh and sin are 0 at 0, so a grid from 0 has no level term; width 0 is one knot.
    y = Interval(lo, lo + width)
    xs = np.linspace(y.lo, y.hi, _grid_cells(f, y, eps, 4097) + 1)
    oracle = _per_knot_hinges(tuple(zip(xs.tolist(), apply_vec(f, xs).tolist())))
    assert repr(relu_approximate(f, y, eps).terms) == repr(oracle)


# -- relu_approximate ---------------------------------------------------------------

def test_relu_approximate_relu_exact():
    assert relu_approximate(RELU, Interval(-5.0, 5.0), 0.5) == ReluSum(((1.0, 0.0, 1.0),))


def test_relu_approximate_id_exact():
    rs = relu_approximate(ID, Interval(-5.0, 5.0), 0.5)
    assert rs == IDENTITY_SUM


@pytest.mark.parametrize("y", [
    Interval(-1.0, 2.0), Interval(0.5, 3.0), Interval(-4.0, -1.0), Interval(0.0, 0.0),
    Interval(-math.inf, math.inf), Interval(0.0, math.inf),  # unbounded: no grid needed
])
def test_relu_approximate_abs_is_exact_on_the_whole_line(y):
    g = relu_approximate(ABS, y, 0.1)
    assert g == ReluSum(((1.0, 0.0, 1.0), (-1.0, 0.0, 1.0)))
    xs = np.concatenate([np.linspace(-1e6, 1e6, 2001), [-0.0, 5e-324, 1e300, -1e300]])
    assert np.array_equal(apply_vec(g, xs), np.abs(xs))


def test_relu_approximate_sin_certificate():
    eps = 0.01
    rs = relu_approximate(SIN, Interval(-math.pi, math.pi), eps)
    grid = np.linspace(-math.pi, math.pi, 100_000)
    err = np.abs(np.sin(grid) - apply_vec(rs, grid)).max()
    assert err <= eps


def test_relu_approximate_budget_exhaustion():
    with pytest.raises(CertificateError):
        relu_approximate(SIN, Interval(-100.0, 100.0), 1e-6, max_points=33)


def test_relu_approximate_rejects_nonpositive_eps():
    for eps in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            relu_approximate(SIN, Interval(0.0, 1.0), eps)


def test_relu_approximate_degenerate_interval():
    rs = relu_approximate(TANH, Interval(0.5, 0.5), 0.1)
    assert apply(rs, 0.5) == pytest.approx(math.tanh(0.5), abs=1e-12)


# -- modulus_delta -------------------------------------------------------------------

def test_modulus_delta_rejects_an_eps_that_is_not_positive_and_finite():
    for eps in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            modulus_delta(SIN, Interval(-1.0, 1.0), eps)


def _sampled_oscillation(f, iv, delta, n=20_000):
    xs = np.linspace(iv.lo, iv.hi, n)
    vals = apply_vec(f, xs)
    h = iv.width / (n - 1)
    w = max(1, int(delta / h))
    worst = 0.0
    for off in (1, w // 2, w):
        if off < 1 or off >= n:
            continue
        worst = max(worst, float(np.abs(vals[off:] - vals[:-off]).max()))
    return worst


@pytest.mark.parametrize(
    "f,iv,eps,ceiling",
    [
        (ID, Interval(0.0, 1.0), 0.1, 0.1),
        (RELU, Interval(-1.0, 1.0), 0.1, 0.1),
        (TANH, Interval(-2.0, 2.0), 0.05, None),
    ],
)
def test_modulus_delta_post(f, iv, eps, ceiling):
    delta = modulus_delta(f, iv, eps)
    assert delta > 0
    if ceiling is not None:
        assert delta <= ceiling
    assert _sampled_oscillation(f, iv, delta) < eps


def test_modulus_delta_wide_tolerance_returns_half_width():
    # global oscillation of tanh is < 2, so the whole width passes, halved once
    assert modulus_delta(TANH, Interval(-2.0, 2.0), 5.0) == 2.0


def test_modulus_delta_of_relu_sum_uses_its_steepest_piece_inside_the_interval():
    # slopes: 0 left of 0, 1 on [0, 2], 4 right of 2
    g = ReluSum(((1.0, 0.0, 1.0), (1.0, 2.0, 3.0)))
    assert modulus_delta(g, Interval(-1.0, 1.0), 0.1) == 0.05
    assert modulus_delta(g, Interval(-1.0, 3.0), 0.1) == 0.0125
    assert modulus_delta(g, Interval(-5.0, -1.0), 0.1) == 2.0


def test_merged_has_no_closed_form_approximant():
    with pytest.raises(ValueError):
        relu_approximate(FIG_MERGED, Interval(-1.0, 1.0), 0.1)
    with pytest.raises(ValueError):
        modulus_delta(FIG_MERGED, Interval(-1.0, 1.0), 0.1)


# -- the certificate is a proof ------------------------------------------------------

# sup|f''| on the real line, worked out by hand; the interpolation bound h^2/8 * M2
# then fixes the knot count.
CURVATURE = {SIN: 1.0, TANH: 4.0 / (3.0 * math.sqrt(3.0)), SIGMOID: 1.0 / (6.0 * math.sqrt(3.0))}
# Evaluating a ReluSum of up to ~2000 terms on |x| <= 100 rounds by far less.
ROUNDING = 1e-10


@settings(max_examples=80, deadline=None)
@given(
    f=st.sampled_from([SIN, TANH, SIGMOID, ABS]),
    lo=st.floats(-50.0, 50.0),
    width=st.floats(1e-3, 50.0),
    eps=st.floats(1e-4, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_relu_approximate_and_modulus_delta_are_proven(f, lo, width, eps, seed):
    y = Interval(lo, lo + width)
    g = relu_approximate(f, y, eps)
    if f == ABS:
        knots = np.array([y.lo, 0.0, y.hi] if y.lo < 0.0 < y.hi else [y.lo, y.hi])
    else:
        n = math.ceil(y.width / math.sqrt(8.0 * eps / CURVATURE[f])) + 1
        knots = np.linspace(y.lo, y.hi, n)
        relu_approximate(f, y, eps, max_points=n)
        with pytest.raises(CertificateError):
            relu_approximate(f, y, eps, max_points=n - 1)
        hinges = np.array([b for a, b, _ in g.terms if a != 0.0])
        assert np.isin(hinges, knots).all()
    probes = np.concatenate([knots, (knots[:-1] + knots[1:]) / 2.0])
    assert np.abs(apply_vec(g, probes) - apply_vec(f, probes)).max() <= eps + ROUNDING

    delta = modulus_delta(g, y, eps)
    assert delta > 0.0
    xs = np.random.default_rng(seed).uniform(y.lo, max(y.lo, y.hi - delta), 500)
    assert np.abs(apply_vec(g, xs + delta) - apply_vec(g, xs)).max() < eps


@settings(max_examples=80, deadline=None)
@given(
    f=st.sampled_from([SIN, TANH, SIGMOID, ABS]),
    lo=st.floats(-50.0, 50.0),
    width=st.floats(1e-3, 50.0),
    eps=st.floats(1e-4, 1.0),
)
def test_interpolation_error_bounds_the_interpolant(f, lo, width, eps):
    y = Interval(lo, lo + width)
    g = relu_approximate(f, y, eps)
    bound = interpolation_error(f, y, eps)
    assert 0.0 <= bound <= eps
    probes = np.linspace(y.lo, y.hi, 2001)
    assert np.abs(apply_vec(g, probes) - apply_vec(f, probes)).max() <= bound + ROUNDING


def test_interpolation_error_is_the_bound_at_the_grid_step():
    # sin on [-1, 1] at eps = 0.01 takes ceil(2 / sqrt(0.08)) = 8 cells of 0.25.
    assert interpolation_error(SIN, Interval(-1.0, 1.0), 0.01) == 0.25**2 / 8
    assert interpolation_error(ABS, Interval(-1.0, 1.0), 0.01) == 0.0
    assert interpolation_error(SIN, Interval(0.5, 0.5), 0.01) == 0.0


# -- serialization --------------------------------------------------------------------

@pytest.mark.parametrize("f", CATALOG, ids=str)
def test_activation_json_roundtrip(f):
    assert activation_from_json(activation_to_json(f)) == f


def _nested_merge(levels, side):
    obj = activation_to_json(TANH)
    for _ in range(levels):
        obj = {"kind": "merged", side: obj, "M": 1.0, "m": -1.0,
               ("right" if side == "left" else "left"): activation_to_json(SIN)}
    return obj


@pytest.mark.parametrize("side", ["left", "right"])
def test_activation_from_json_bounds_the_merged_nesting(side):
    f = activation_from_json(_nested_merge(32, side))
    for _ in range(32):
        f = getattr(f, side)
    assert f == TANH
    with pytest.raises(ValueError, match="merged activations nest deeper than 32 levels"):
        activation_from_json(_nested_merge(33, side))


def test_named_catalog_is_closed():
    with pytest.raises(ValueError):
        Named("softplus")
