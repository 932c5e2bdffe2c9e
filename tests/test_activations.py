import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    interpolant,
    interval_image,
    knot_span,
    knots_floor,
    lipschitz,
    merge,
    modulus_delta,
    pl_to_relu_sum,
    relu_approximate,
)
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


def _per_knot_terms_on(points, y):
    """The per-knot oracle for an interpolant on y: _per_knot_hinges without
    the hinge at y's high end, which is 0 on y."""
    return tuple(t for t in _per_knot_hinges(points) if t[0] == 0.0 or t[1] != y.hi)


@settings(max_examples=200, deadline=None)
@given(
    f=st.sampled_from([SIN, TANH, SIGMOID]),
    lo=st.sampled_from([0.0, -math.pi]) | st.floats(-50.0, 50.0),
    width=st.sampled_from([0.0]) | st.floats(1e-3, 50.0),
    eps=st.floats(1e-4, 1.0),
)
def test_interpolants_match_the_per_knot_loop(f, lo, width, eps):
    # The line meets f plus an offset at each knot; its values there are the
    # oracle's points.  tanh and sin are 0 at 0, so a grid from 0 has no
    # level term; width 0 is one knot.  On y the sum is the full per-knot
    # line's, to the bit: the term it leaves out is exactly 0 there.  Each
    # offset, the error at its knot, is within the bound.
    y = Interval(lo, lo + width)
    it = interpolant(f, y, eps)
    xs = np.array(it.knots)
    points = tuple(zip(xs.tolist(), it.values))
    assert np.abs(np.array(it.values) - apply_vec(f, xs)).max() <= it.bound
    oracle = _per_knot_terms_on(points, y)
    assert repr(it.relu_sum.terms) == repr(oracle)
    assert repr(relu_approximate(f, y, eps).terms) == repr(oracle)
    grid = np.linspace(y.lo, y.hi, 2001)
    full = ReluSum(_per_knot_hinges(points))
    assert np.array_equal(apply_vec(it.relu_sum, grid), apply_vec(full, grid))


@settings(max_examples=200, deadline=None)
@given(
    f=st.sampled_from([SIN, TANH, SIGMOID]),
    lo=st.sampled_from([0.0, -math.pi, 0.5, -10.0]) | st.floats(-50.0, 50.0),
    width=st.sampled_from([0.0, 9.5]) | st.floats(1e-3, 50.0),
    eps=st.floats(1e-4, 1.0),
)
def test_every_term_of_an_interpolant_turns_inside_its_interval(f, lo, width, eps):
    y = Interval(lo, lo + width)
    it = interpolant(f, y, eps)
    knots = np.array(it.knots)
    values = np.array(it.values)
    g = it.relu_sum
    full = pl_to_relu_sum(PiecewiseLinear(tuple(zip(knots.tolist(), values.tolist()))))
    # Each term turns at a point of y and is positive somewhere strictly inside it.
    for a, b, _ in g.terms:
        if a != 0.0:
            assert y.lo <= b / a <= y.hi and max(a * y.lo - b, a * y.hi - b) > 0.0
    # On y the sum is the full per-knot line, within the proven bound of f.
    xs = np.linspace(y.lo, y.hi, 2001)
    assert np.array_equal(apply_vec(g, xs), apply_vec(full, xs))
    assert np.abs(apply_vec(g, xs) - apply_vec(f, xs)).max() <= it.bound + ROUNDING
    assert it.lipschitz == pytest.approx(lipschitz(g, y), rel=1e-12, abs=1e-300)
    # A term per knot where the slope turns, but none at y's high end, and the level.
    dead = {len(knots) - 1} if knots[-1] == y.hi else set()
    turning = {b for a, b, _ in full.terms if a != 0.0}
    zero_turns = sum(k not in turning for i, k in enumerate(knots.tolist()) if i not in dead)
    assert len(g.terms) == len(knots) - len(dead) - zero_turns + (values[0] != 0.0)


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


@pytest.mark.parametrize("eps", [1e307, 3e307, 1e308])
def test_an_eps_near_the_float_maximum_keeps_both_end_knots(eps):
    # From about 2.3e307 on, 8*eps/sup|f''| overflows: an interval still gets
    # its two end knots, a point one.  The offsets spend what tanh's range
    # leaves them, so the line runs from -1 to 1, and it errs most at the
    # ends, by 1 - tanh(1).
    ends = np.array([-1.0, 1.0])
    it = interpolant(TANH, Interval(-1.0, 1.0), eps)
    assert it.knots == (-1.0, 1.0)
    assert apply_vec(it.relu_sum, ends) == pytest.approx(ends, rel=1e-8)  # the slope cap's margin
    assert it.bound == pytest.approx(1.0 - math.tanh(1.0), rel=1e-8)
    xs = np.linspace(-1.0, 1.0, 2001)
    assert np.abs(apply_vec(it.relu_sum, xs) - np.tanh(xs)).max() <= it.bound
    point = relu_approximate(TANH, Interval(1.0, 1.0), eps)
    assert len(point.terms) == 1
    assert np.array_equal(apply_vec(point, ends), apply_vec(TANH, ends[1:]).repeat(2))


def test_relu_approximate_budget_exhaustion():
    # About 850 knots per period of sin, against a cap of 4,097 knots; the
    # message names the function, the interval, eps and where the walk was.
    with pytest.raises(CertificateError, match=r"1e-06-certificate for sin on \[-100.0, 100.0\]"
                       r" needs more than 4097 knots: the walk reached \|x\| = "):
        relu_approximate(SIN, Interval(-100.0, 100.0), 1e-6)


def test_relu_approximate_rejects_nonpositive_eps():
    for eps in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            relu_approximate(SIN, Interval(0.0, 1.0), eps)


def test_relu_approximate_degenerate_interval():
    rs = relu_approximate(TANH, Interval(0.5, 0.5), 0.1)
    assert apply(rs, 0.5) == pytest.approx(math.tanh(0.5), abs=1e-12)


# -- lipschitz -----------------------------------------------------------------------

_DERIVATIVES = {SIN: np.cos, TANH: lambda x: 1.0 - np.tanh(x) ** 2,
                SIGMOID: lambda x: np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))) ** 2}


@settings(max_examples=300, deadline=None)
@given(f=st.sampled_from([SIN, TANH, SIGMOID]), lo=st.floats(-30.0, 30.0),
       width=st.one_of(st.just(0.0), st.floats(0.0, 10.0)), eps=st.floats(1e-4, 0.5))
def test_lipschitz_is_the_largest_slope_on_the_interval(f, lo, width, eps):
    # A dense grid, with the ends and every peak of |f'| in y (0, and k*pi for
    # sin), attains the sup; and every chord of an interpolant on y is at most
    # it, up to the rounding of f's values (|f| <= 1) over the chord's width.
    y = Interval(lo, lo + width)
    peaks = [k * math.pi for k in range(math.ceil(y.lo / math.pi), math.floor(y.hi / math.pi) + 1)]
    xs = np.concatenate((np.linspace(y.lo, y.hi, 2001), [min(max(0.0, y.lo), y.hi)], peaks))
    sampled = float(np.abs(_DERIVATIVES[f](xs)).max())
    assert lipschitz(f, y) == pytest.approx(sampled, rel=1e-9, abs=1e-12)
    knots = np.array(interpolant(f, y, eps).knots)
    if len(knots) > 1:
        chords = np.diff(apply_vec(f, knots)) / np.diff(knots)
        rounding = 4.0 * np.finfo(float).eps / np.diff(knots).min()
        assert np.abs(chords).max() <= lipschitz(f, y) * (1.0 + 1e-9) + rounding


@pytest.mark.parametrize("f,y,want", [
    (RELU, Interval(-2.0, -1.0), 0.0),  # left of the kink relu is flat
    (RELU, Interval(1.0, 2.0), 1.0),
    (ABS, Interval(-3.0, -1.0), 1.0),
    (ID, Interval(-1.0, 1.0), 1.0),
    # slopes: 0 left of 0, 1 on [0, 2], 4 right of 2
    (ReluSum(((1.0, 0.0, 1.0), (1.0, 2.0, 3.0))), Interval(0.5, 1.5), 1.0),
    (ReluSum(((1.0, 0.0, 1.0), (1.0, 2.0, 3.0))), Interval(-5.0, -1.0), 0.0),
    (CLAMP01, Interval(2.0, 3.0), 0.0),
    (CLAMP01, Interval(0.25, 0.5), 1.0),
    # On the line the curved functions keep their global slopes, bit for bit.
    (SIN, Interval(-math.inf, math.inf), 1.0),
    (TANH, Interval(-math.inf, math.inf), 1.0),
    (SIGMOID, Interval(-math.inf, math.inf), 0.25),
])
def test_lipschitz_is_the_exact_slope_of_an_exact_form_on_the_interval(f, y, want):
    assert lipschitz(f, y) == want


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
        # lipschitz on y: |cos| is at most cos(1) there, and relu is flat.
        (SIN, Interval(1.0, 2.0), 0.1, None),
        (RELU, Interval(-2.0, -1.0), 0.1, None),
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
# Past ±a, tanh and sigmoid are within eps of their asymptotes, worked out by
# hand: a = atanh(1 - eps) and ln((1 - eps)/eps), while a is positive.  The
# clip takes them at eps less the margin that the offsets keep below eps.
MARGIN = 1.0 + 1e-9
FLAT = {TANH: lambda eps: math.atanh(1.0 - eps) if eps < 1.0 else None,
        SIGMOID: lambda eps: math.log((1.0 - eps) / eps) if eps < 0.5 else None}


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
    it = interpolant(f, y, eps)
    grid, gap = it.grid, it.tail_gap
    assert 0.0 <= gap <= eps
    if f == ABS:
        knots = np.array([y.lo, 0.0, y.hi] if y.lo < 0.0 < y.hi else [y.lo, y.hi])
    else:
        knots = np.array(it.knots)
        assert (np.diff(knots) > 0.0).all() and (grid.lo, grid.hi) == (knots[0], knots[-1])
        # Each end of the knots is y's, or y's clipped to [-a, a], up to the
        # float steps that bring f(±a) within eps of the asymptotes; only a
        # clip leaves a tail gap.
        a = FLAT.get(f, lambda eps: None)(eps / MARGIN)
        for end, want in ((grid.lo, y.lo), (grid.hi, y.hi)):
            if end != want:
                assert a is not None and gap > 0.0
                assert end == pytest.approx(min(max(want, -a), a), rel=1e-9, abs=1e-12)
        if grid == y:
            assert gap == 0.0
        # Every step but the last of each side from 0 is at least the uniform
        # grid's sqrt(8 eps / sup|f''|), less a relative margin of 1e-9.
        h = math.sqrt(8.0 * eps / CURVATURE[f])
        assert len(knots) <= math.ceil(grid.width / h * (1.0 + 1e-9)) + 2
        hinges = np.array([b for a, b, _ in g.terms if a != 0.0])
        assert np.isin(hinges, knots).all()
    # The knots, the cells' midpoints, and the whole of y, past the clip too.
    probes = np.concatenate([knots, (knots[:-1] + knots[1:]) / 2.0,
                             np.linspace(y.lo, y.hi, 1001)])
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
    bound = interpolant(f, y, eps).bound
    assert 0.0 <= bound <= eps
    probes = np.linspace(y.lo, y.hi, 2001)
    assert np.abs(apply_vec(g, probes) - apply_vec(f, probes)).max() <= bound + ROUNDING


def test_interpolation_error_is_the_bound_at_the_grid_step():
    # One cell where it is enough, its offsets spending the band: tanh on
    # [-1, 1] holds both peaks of |tanh''| and its inflection at 0, so the
    # cell is read as two pieces of 1/8 * sup|tanh''| each; sin on [0, 0.4]
    # bends one way.  The walk tries the whole of y from its first knot.
    for f, y, eps in ((TANH, Interval(-1.0, 1.0), 0.1), (SIN, Interval(0.0, 0.4), 0.01)):
        it = interpolant(f, y, eps)
        assert it.knots == (y.lo, y.hi)
        assert it.bound == pytest.approx(eps, rel=1e-8) and it.bound <= eps
        assert max(_cell_errors(f, it)[1]) <= it.bound
    # Many cells: each cell's error range, its offsets widened by h^2/8 *
    # sup|f''| on the side f bends to, at most eps.  sin on [-1, 1] needs 6
    # knots.
    it = interpolant(SIN, Interval(-1.0, 1.0), 0.01)
    assert len(it.knots) == 6 and it.bound <= 0.01
    largest = max(_cell_errors(SIN, it)[1])
    assert largest <= it.bound <= largest * (1.0 + 1e-6)
    assert interpolant(ABS, Interval(-1.0, 1.0), 0.01).bound == 0.0
    assert interpolant(SIN, Interval(0.5, 0.5), 0.01).bound == 0.0


@settings(max_examples=80, deadline=None)
@given(
    f=st.sampled_from([SIN, TANH, SIGMOID, ABS, ID, ReluSum(((2.0, 1.0, -3.0),))]),
    lo=st.floats(-50.0, 50.0),
    width=st.floats(0.0, 50.0),
    eps=st.floats(1e-4, 1.0),
)
@example(f=SIN, lo=0.0, width=5e-324, eps=1.0)  # one piece, one float wide
def test_the_interpolant_carries_its_lipschitz_constant_on_y(f, lo, width, eps):
    # The running sum of a walk's turns is the steepest slope lipschitz finds
    # on y; an exact form's is lipschitz's own.  lipschitz reads which terms
    # are on from the order of the kinks, so a piece one float wide counts.
    y = Interval(lo, lo + width)
    it = interpolant(f, y, eps)
    want = lipschitz(it.relu_sum, y)
    if it.knots:
        assert it.lipschitz == pytest.approx(want, rel=1e-12, abs=1e-300)
    else:
        assert it.lipschitz == want


# |f''| written out by hand, for the per-cell check of the knots.
SECOND = {SIN: lambda x: -np.sin(x),
          TANH: lambda x: -2.0 * np.tanh(x) / np.cosh(x) ** 2,
          # s(1 - s)(1 - 2s) with 1 - s = s(-x), which keeps its precision for large x.
          SIGMOID: lambda x: (lambda s, t: s * t * (t - s))(1.0 / (1.0 + np.exp(-x)),
                                                           1.0 / (1.0 + np.exp(x)))}


def _curvature_range(f, knots, offsets, samples):
    # Per cell: [min(c_a, c_b) + lo, max(c_a, c_b) + hi], with c the offsets
    # at its ends and [lo, hi] = h^2/8 * [-sup f''-, sup f''+], |f''|
    # sampled densely on the cell.
    cells = knots[:-1, None] + np.diff(knots)[:, None] * np.linspace(0.0, 1.0, samples)
    second = SECOND[f](cells)
    scale = np.diff(knots) ** 2 / 8.0
    return (np.minimum(offsets[:-1], offsets[1:]) - scale * np.maximum(-second, 0.0).max(axis=1),
            np.maximum(offsets[:-1], offsets[1:]) + scale * np.maximum(second, 0.0).max(axis=1))


def _cell_errors(f, it, samples=257):
    """Per piece of it's line: a range that holds the line less f, and its
    largest magnitude.  The pieces are the cells, cut at each inflection of
    f (0, and k*pi for sin) with the line's value there, so that f bends one
    way on each.  A piece's range is its curvature range (above), within its
    cell's own; where the line is nearly as steep as f gets on the piece,
    the line less f moves one way, but for the drift h * sup|f'| - |rise of
    the line|, which then bounds lo and hi too.  |f'| peaks at the
    inflections, so its sup on a piece is at an end."""
    knots, values = np.array(it.knots), np.array(it.values)
    whole = _curvature_range(f, knots, values - apply_vec(f, knots), samples)
    inflections = np.pi * np.arange(np.ceil(knots[0] / np.pi), np.floor(knots[-1] / np.pi) + 1)
    inside = [x for x in (inflections if f == SIN else [0.0]) if knots[0] < x < knots[-1]]
    cuts = np.concatenate((knots, inside))
    order = np.argsort(cuts, kind="stable")
    cell = np.searchsorted(knots, cuts[order][:-1], side="right") - 1
    knots, values = cuts[order], np.concatenate((values, np.interp(inside, knots, values)))[order]
    offsets = values - apply_vec(f, knots)
    low, high = _curvature_range(f, knots, offsets, samples)
    slopes = np.abs(_DERIVATIVES[f](knots))
    drift = np.maximum(np.diff(knots) * np.maximum(slopes[:-1], slopes[1:]) - np.abs(np.diff(values)), 0.0)
    low = np.maximum.reduce([low, np.minimum(offsets[:-1], offsets[1:]) - drift, whole[0][cell]])
    high = np.minimum.reduce([high, np.maximum(offsets[:-1], offsets[1:]) + drift, whole[1][cell]])
    return (low, high), np.maximum(-low, high)


@settings(max_examples=150, deadline=None)
@given(
    f=st.sampled_from([SIN, TANH, SIGMOID]),
    lo=st.sampled_from([0.0, -math.pi, -1.5]) | st.floats(-50.0, 50.0),
    width=st.sampled_from([0.0, 3.0]) | st.floats(1e-3, 50.0),
    eps=st.floats(1e-4, 1.0),
)
def test_every_cell_meets_the_interpolation_bound(f, lo, width, eps):
    # Each cell's error range, from its offsets and its densely sampled f'',
    # lies in [-eps, eps] and in [-bound, bound]; past the end knots f stays
    # within the tail gap of its value at the end knot.
    y = Interval(lo, lo + width)
    it = interpolant(f, y, eps)
    knots = np.array(it.knots)
    if len(knots) > 1:
        _, largest = _cell_errors(f, it)
        assert largest.max() <= eps * (1.0 + 1e-12)
        assert largest.max() <= it.bound * (1.0 + 1e-12)
    for end, tail in ((knots[0], np.linspace(y.lo, knots[0], 101)),
                      (knots[-1], np.linspace(knots[-1], y.hi, 101))):
        assert np.abs(apply_vec(f, tail) - apply(f, end)).max() <= it.tail_gap + 2.0 * ROUNDING
    assert it.tail_gap <= it.bound <= eps


@settings(max_examples=300, deadline=None)
@given(
    f=st.sampled_from([SIN, TANH, SIGMOID]),
    lo=st.sampled_from([0.0, -math.pi, 0.5, -3.0]) | st.floats(-8.0, 8.0),
    width=st.sampled_from([0.0, 2.0 * math.pi]) | st.floats(0.1, 30.0),
    eps=st.floats(1e-4, 1.0),
)
# The clip collapses to about +-1e-5, where tanh is steeper than the slope
# cap's margin allows: a left-to-right walk that let no cell be as steep as
# f's own chord stalled there.
@example(f=TANH, lo=-0.5, width=4.0, eps=0.99999)
@example(f=SIN, lo=-5e-324, width=2.0 * math.pi, eps=1.0)  # an inflection a float past y.lo
def test_every_cell_spends_the_band_within_the_slope(f, lo, width, eps):
    # The offsets bend no cell steeper than sup|f'| on y, which the planner
    # assumes of every interpolant; and the densely sampled error, the
    # knots and the cells' midpoints included, is within the bound, with no
    # slack: the offsets stay a margin of 1e-9 inside eps, which covers the
    # rounding of the sum's terms.  (Far out in a tail of sigmoid or tanh,
    # or on a tiny y, a bound can fall below one rounding of f; this box
    # keeps clear of that.)
    y = Interval(lo, lo + width)
    it = interpolant(f, y, eps)
    assert it.lipschitz <= lipschitz(f, y)
    knots = np.array(it.knots)
    xs = np.concatenate([np.linspace(y.lo, y.hi, 4001), knots, (knots[:-1] + knots[1:]) / 2.0])
    assert np.abs(apply_vec(it.relu_sum, xs) - apply_vec(f, xs)).max() <= it.bound


@pytest.mark.parametrize("y,eps", [(Interval(-1.0, 1.0), 0.01), (Interval(-3.0, 3.0), 1e-3),
                                   (Interval(-2.5, 1.0), 0.01)])
@pytest.mark.parametrize("f", [SIGMOID, TANH, SIN])
def test_a_walk_from_0_turns_no_slope_there(f, y, eps):
    # The inflection at 0 writes no term: a cell crosses it, read as two
    # pieces, so no breakpoint is spent on 0 (nor a rounding turn there).
    it = interpolant(f, y, eps)
    assert all(b != 0.0 for a, b, _ in it.relu_sum.terms if a != 0.0)
    assert max(_cell_errors(f, it)[1]) <= it.bound <= eps


@settings(max_examples=200, deadline=None)
@given(
    f=st.sampled_from([SIN, TANH, SIGMOID]),
    lo=st.sampled_from([0.0, -math.pi, -1.5, 0.5]) | st.floats(-20.0, 20.0),
    width=st.sampled_from([2.0 * math.pi, 3.0]) | st.floats(0.1, 40.0),
    eps=st.floats(1e-4, 1.0),
)
@example(f=SIGMOID, lo=-1.5, width=3.227791357755662, eps=0.09524529924638232)
@example(f=SIN, lo=-1.5, width=6.293427329275544, eps=0.8400338206488314)
@example(f=SIN, lo=-0.08757262927355924, width=43.344118775162784, eps=0.0002363224216021911)
def test_no_turn_of_an_interpolant_is_a_rounding(f, lo, width, eps):
    # Two cells on one line, each as steep as the slope cap lets it (from an
    # inflection, or across one of sin), once met at a knot whose turn was a
    # rounding of the slope, which still cost a compiled row; such a knot
    # goes, and the cells stay within the bound.  Dropping one can leave a
    # rounding turn at its neighbour (the last example), which goes too.
    y = Interval(lo, lo + width)
    it = interpolant(f, y, eps)
    assert all(abs(c) > 1e-12 * it.lipschitz for a, _, c in it.relu_sum.terms if a != 0.0)
    knots = np.array(it.knots)
    xs = np.concatenate([np.linspace(y.lo, y.hi, 4001), knots])
    assert np.abs(apply_vec(it.relu_sum, xs) - apply_vec(f, xs)).max() <= it.bound + ROUNDING


def test_a_cell_crosses_an_inflection_of_sin():
    # No knot need land on k*pi: one cell crosses it, read as the two cells
    # that meet there.  At eps = 1 on [0, 7], 4 knots, as on a uniform grid.
    it = interpolant(SIN, Interval(0.0, 7.0), 1.0)
    assert len(it.knots) == 4 and not {math.pi, 2.0 * math.pi} & set(it.knots)
    assert max(_cell_errors(SIN, it)[1]) <= it.bound <= 1.0


def _fewest_pieces(f, y, eps, n=160):
    """The fewest pieces of a broken line, continuous or not, with its
    breakpoints on an n-point grid of y, each piece within eps of f, where y
    holds no inflection: the best line on a convex or concave piece errs by
    half the chord's largest gap, found where f' meets the chord's slope."""
    grid = np.linspace(y.lo, y.hi, n)
    a, b = np.meshgrid(grid, grid, indexing="ij")
    with np.errstate(divide="ignore", invalid="ignore"):
        fa, fb = apply_vec(f, a), apply_vec(f, b)
        slope = (fb - fa) / (b - a)
        # Where f' equals the slope, for each of sin, tanh and sigmoid, clipped to the piece.
        if f == SIN:
            k = np.floor(y.lo / math.pi)
            base = np.arccos(np.clip(slope, -1.0, 1.0))
            x = k * math.pi + np.where(k % 2 == 0, base, math.pi - base)
        elif f == TANH:
            x = np.sign(y.lo + y.hi) * np.arctanh(np.sqrt(np.clip(1.0 - slope, 0.0, 1.0)))
        else:
            u = np.clip(1.0 - 4.0 * slope, 0.0, 1.0)  # s(1 - s) = slope at s = (1 + sqrt u) / 2
            x = np.sign(y.lo + y.hi) * np.log((1.0 + np.sqrt(u)) / (1.0 - np.sqrt(u)))
        x = np.clip(np.nan_to_num(x), a, b)
        gap = np.abs(fa + slope * (x - a) - apply_vec(f, x)) / 2.0
    fits = (gap <= eps) | (b <= a)
    best = [0] + [n] * (n - 1)
    for j in range(1, n):
        best[j] = 1 + min(best[i] for i in range(j) if fits[i, j])
    return best[-1]


@pytest.mark.parametrize("f,y,eps", [
    (TANH, Interval(0.0, 3.0), 1e-3), (TANH, Interval(-4.0, -0.2), 3e-4),
    (SIGMOID, Interval(-6.0, 0.0), 1e-4), (SIN, Interval(0.0, math.pi), 1e-3),
    (SIN, Interval(3.3, 6.1), 3e-4), (SIN, Interval(0.2, 2.9), 1e-3),
])
def test_the_knots_floor_is_below_the_fewest_pieces(f, y, eps):
    # The floor counts breakpoints inside y; a line of n pieces has n - 1.
    # The brute-force minimum over a grid is at least the true one, so the
    # floor lies below it, and below the interpolant's breakpoints inside y;
    # on these cases it is within a fifth of the minimum.
    floor = knots_floor(f, y, eps)
    fewest = _fewest_pieces(f, y, eps) - 1
    it = interpolant(f, y, eps)
    turns = sum(y.lo < b / a < y.hi for a, b, _ in it.relu_sum.terms if a != 0.0)
    assert 0 < floor <= min(fewest, turns)
    assert floor >= 0.75 * fewest


def test_the_knots_floor_is_0_for_an_exact_function_or_an_unbounded_interval():
    assert knots_floor(ABS, Interval(-1.0, 1.0), 0.01) == 0
    assert knots_floor(SIN, Interval(0.0, math.inf), 0.01) == 0
    assert knots_floor(TANH, Interval(0.5, 0.5), 0.01) == 0


# -- the clip of tanh and sigmoid ------------------------------------------------------

@pytest.mark.parametrize("f,asymptote", [(TANH, 1.0), (SIGMOID, 1.0), (TANH, -1.0),
                                         (SIGMOID, 0.0)])
def test_an_interval_inside_a_tail_gets_one_knot_and_the_tail_gap(f, asymptote):
    y = Interval(5.0, 9.0) if asymptote == 1.0 else Interval(-9.0, -5.0)
    grid, gap = knot_span(f, y, 0.1)
    assert grid.width == 0.0 and 0.0 < gap <= 0.1
    g = relu_approximate(f, y, 0.1)
    assert g.terms == ((0.0, -1.0, apply(f, grid.lo)),)  # one knot: a constant
    assert interpolant(f, y, 0.1).bound == gap
    xs = np.linspace(y.lo, y.hi, 101)
    assert np.abs(apply_vec(g, xs) - apply_vec(f, xs)).max() <= gap
    # The constant is f(±a), within the gap of f(±∞).
    assert abs(apply(g, 0.0) - asymptote) <= gap


@settings(max_examples=300, deadline=None)
@given(f=st.sampled_from([TANH, SIGMOID]), eps=st.floats(1e-12, 1.0),
       lo=st.floats(-1e4, 0.0), hi=st.floats(0.0, 1e4))
def test_the_tail_gap_is_at_most_eps_exactly_in_floats(f, eps, lo, hi):
    y = Interval(lo, hi)
    grid, gap = knot_span(f, y, eps)
    low, high = (-1.0, 1.0) if f == TANH else (0.0, 1.0)
    # The constants past the end knots, against the asymptotes they stand for.
    if grid.hi < y.hi:
        assert high - apply(f, grid.hi) <= gap <= eps
    if grid.lo > y.lo:
        assert apply(f, grid.lo) - low <= gap <= eps
    if grid == y:
        assert gap == 0.0
    try:
        assert interpolant(f, y, eps).bound <= eps
    except CertificateError:
        pass  # a grid of more than 4096 cells; the bound needs none


@pytest.mark.parametrize("f", [SIN, RELU, ABS, ID, CLAMP01, IDENTITY_SUM])
def test_only_tanh_and_sigmoid_are_clipped(f):
    for y in (Interval(-50.0, 50.0), Interval(-math.inf, math.inf)):
        assert knot_span(f, y, 0.1) == (y, 0.0)


@pytest.mark.parametrize("f,eps", [(TANH, 1.0), (TANH, 5.0), (SIGMOID, 0.5), (SIGMOID, 0.75)])
def test_an_eps_of_half_the_range_clips_nothing(f, eps):
    # a = atanh(1 - ε) or ln((1 - ε)/ε) is not positive there: no interval is left to clip to.
    y = Interval(-3.0, 3.0)
    assert knot_span(f, y, eps) == (y, 0.0)


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
