import math
import sys
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from generate import random_expr
from helpers import batch_instances, deep_mpnn, uniform_distance_estimates
from mplangc import activations, approx
from mplangc.activations import (
    SIN,
    TANH,
    PiecewiseLinear,
    ReluSum,
    interpolant,
    pl_to_relu_sum,
    relu_approximate,
)
from mplangc.approx import (
    _planned,
    _relu_sum_expr,
    approximate,
    approximate_all,
    image_bounds,
)
from mplangc.cli import main
from mplangc.errors import ArityError, CertificateError
from mplangc.compiler import compile_relu
from mplangc.expressions import (
    Add,
    Apply,
    Diamond,
    One,
    Proj,
    Scale,
    classify,
    classify_all,
    fold_all,
)
from mplangc.graphs import Graph
from mplangc.intervals import DomainBox, Interval
from mplangc.interpreter import eval_expr
from mplangc.parser import parse
from mplangc.translate import mpnn_to_mplang


# -- image_bounds ----------------------------------------------------------------

def test_image_of_unit_constant():
    assert image_bounds(parse("1"), 5, DomainBox.cube(-9, 9, 1)) == Interval(1.0, 1.0)


def test_image_of_neighbor_sum_nonnegative_box():
    got = image_bounds(parse("<>P1"), 3, DomainBox.from_pairs([[0.0, 1.0]]))
    assert got == Interval(0.0, 3.0)
    # extremal oracle: a star center with 3 unit leaves attains the bound
    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    from mplangc.graphs import FeatureMap

    vals = eval_expr(parse("<>P1"), star, FeatureMap(np.ones((4, 1))))
    assert vals[0] == 3.0


def test_image_of_neighbor_sum_symmetric_box():
    got = image_bounds(parse("<>P1"), 3, DomainBox.cube(-1, 1, 1))
    assert got == Interval(-3.0, 3.0)


def test_image_of_neighbor_sum_at_degree_0_is_0_even_when_its_argument_overflows():
    # 1e300*(1e300*P1) is unbounded; no graph of degree 0 has neighbors.
    got = image_bounds(parse("<>(1e300*(1e300*P1))"), 0, DomainBox.cube(-1, 1, 1))
    assert got == Interval(0.0, 0.0)


def test_image_affine():
    got = image_bounds(parse("2*P1 + 1"), 0, DomainBox.cube(-1, 1, 1))
    assert got == Interval(-1.0, 3.0)


def test_image_scale_negative_swaps():
    got = image_bounds(parse("-2*P1"), 0, DomainBox.from_pairs([[0.0, 1.0]]))
    assert got == Interval(-2.0, 0.0)


@pytest.mark.parametrize("seed", range(15))
def test_image_bounds_sound_on_random_expressions(seed):
    rng = np.random.default_rng(900 + seed)
    d = int(rng.integers(1, 4))
    p = int(rng.integers(0, 4))
    e = random_expr(rng, int(rng.integers(1, 6)), d)
    box = DomainBox.cube(-1, 1, d)
    iv = image_bounds(e, p, box)
    union, fm = batch_instances(p, box, 200, seed)
    vals = eval_expr(e, union, fm)
    slack = 1e-9 * (1.0 + np.abs(vals))
    assert (vals >= iv.lo - slack).all() and (vals <= iv.hi + slack).all()


def test_image_bounds_monotone_under_box_shrinking():
    rng = np.random.default_rng(77)
    for _ in range(20):
        e = random_expr(rng, 4, 2)
        outer = DomainBox.cube(-2, 2, 2)
        inner = DomainBox.cube(-1, 1, 2)
        big = image_bounds(e, 3, outer)
        small = image_bounds(e, 3, inner)
        assert big.lo <= small.lo and small.hi <= big.hi


def test_image_bounds_arity_error():
    with pytest.raises(ArityError):
        image_bounds(parse("P3"), 1, DomainBox.cube(0, 1, 2))


# -- approximate ------------------------------------------------------------------

def test_relu_only_expression_returned_unchanged():
    e = parse("relu(P1 + <>P1) + 0.5*P1")
    out = approximate(e, 3, DomainBox.cube(-1, 1, 1), 0.25)
    assert out == e


def test_sin_on_single_nodes_within_budget():
    e = parse("sin(P1)")
    box = DomainBox.from_pairs([[-3.141592653589793, 3.141592653589793]])
    out = approximate(e, 0, box, 0.1)
    assert classify(out).relu_only
    (rho,) = uniform_distance_estimates((e,), (out,), 0, box, 10_000, 13)
    assert rho <= 0.1


def test_tanh_of_neighbor_sum_within_budget():
    e = parse("tanh(<>P1)")
    box = DomainBox.cube(-1, 1, 1)
    out = approximate(e, 3, box, 0.05)
    assert classify(out).relu_only
    (rho,) = uniform_distance_estimates((e,), (out,), 3, box, 5_000, 17)
    assert rho <= 0.05


def test_negative_scale_budget():
    e = parse("-2*sin(P1)")
    box = DomainBox.cube(-1, 1, 1)
    out = approximate(e, 2, box, 0.1)
    assert classify(out).relu_only
    (rho,) = uniform_distance_estimates((e,), (out,), 2, box, 5_000, 19)
    assert rho <= 0.1


def test_zero_scale_collapses_to_zero():
    e = Scale(0.0, parse("sin(P1)"))
    out = approximate(e, 2, DomainBox.cube(-1, 1, 1), 0.5)
    assert out == Scale(0.0, One())


def test_diamond_at_degree_zero_collapses_to_zero():
    e = parse("<>sin(P1)")
    out = approximate(e, 0, DomainBox.cube(-1, 1, 1), 0.5)
    assert out == Scale(0.0, One())


def test_arguments_no_parent_reads_are_not_bounded(monkeypatch):
    # Under 0*e and, at p = 0, <>e nothing is approximated, so nothing is bounded:
    # the image of 0*(1e300*(1e300*P1)) would scale [-inf, inf] by 0.
    box = DomainBox.cube(-1, 1, 1)
    assert approximate(parse("0*sin(0*(1e300*(1e300*P1)))"), 1, box, 0.1) == Scale(0.0, One())
    images = []
    monkeypatch.setattr("mplangc.approx.interval_image",
                        lambda f, y: images.append(f) or Interval(-1.0, 1.0))
    for text, p in (("0*sin(tanh(P1))", 2), ("<>sin(tanh(P1)) + relu(P1)", 0)):
        approximate(parse(text), p, box, 0.1)
    assert images == []


@pytest.mark.parametrize("text", ["P1", "<>P1", "sin(<>P1)"])
def test_image_bounds_and_approximate_reject_a_negative_degree_bound(text):
    box = DomainBox.cube(0, 1, 1)
    with pytest.raises(ValueError, match="degree bound must be nonnegative"):
        image_bounds(parse(text), -1, box)
    with pytest.raises(ValueError, match="degree bound must be nonnegative"):
        approximate_all([parse(text)], -1, box, 0.1)


def test_approximate_all_checks_every_projection_against_the_box():
    box = DomainBox.cube(-1, 1, 1)
    for text in ("relu(P2)", "0*sin(P2)", "sin(P1) + <>P2"):
        with pytest.raises(ArityError):
            approximate_all([parse("sin(P1)"), parse(text)], 1, box, 0.1)


def test_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        approximate(parse("sin(P1)"), 1, DomainBox.cube(-1, 1, 1), 0.0)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf")])
def test_rejects_an_eps_that_is_not_finite(eps):
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        approximate_all([parse("sin(P1)")], 1, DomainBox.cube(-1, 1, 1), eps)


def test_approximation_is_deterministic():
    e = parse("sin(<>tanh(P1)) + 0.5*P1")
    box = DomainBox.cube(-1, 1, 1)
    assert approximate(e, 3, box, 0.2) == approximate(e, 3, box, 0.2)


def _dag_size(roots) -> int:
    nodes = []
    fold_all(roots, lambda node, kids: nodes.append(node))
    return len(nodes)


# Evaluating the sources and approximants here rounds by far less.
ROUNDING = 1e-9


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(1, 5),
    p=st.integers(0, 3),
    eps=st.sampled_from([0.5, 0.1, 0.02]),
)
# 0.3095703235669376*(tanh(<>1) + -1.5487026159535633): tanh's share times
# the sensitivity once rounded above eps.
@example(seed=165, depth=4, p=2, eps=0.02)
# <>(abs(1.40...*tanh(P1)) + <>(tanh(P1) + abs(1))) and
# 1.09...*(-1.50...*(0.66...*(tanh(P1) + 1))): shares that keep share * s
# within eps, but a plan that folds the error in another order rounds above
# it, by an ulp.
@example(seed=3648, depth=5, p=2, eps=0.02)
@example(seed=2378965872, depth=5, p=2, eps=0.1)
def test_approximants_are_relu_only_and_within_their_proven_eps(seed, depth, p, eps):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    e = random_expr(rng, depth, d)
    box = DomainBox.cube(-1, 1, d)
    try:
        (out,), report = approximate_all([e], p, box, eps)
    except CertificateError:
        reject()  # an image too wide for a 4097-knot grid at its share of eps
    assert classify(out).relu_only
    (proven,) = report.proven_eps
    assert proven <= eps
    (rho,) = uniform_distance_estimates((e,), (out,), p, box, 300, seed % 1000)
    assert rho <= eps
    assert rho <= proven + ROUNDING


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(1, 6),
    p=st.integers(0, 3),
    roots=st.integers(1, 3),
    eps=st.floats(1e-3, 1.0),
)
def test_the_plans_prove_what_the_build_reports(seed, depth, p, roots, eps):
    # The report is the kept plan's.  A fold written here proves each root's
    # error again from the plan's interpolants, by the rules of the proof
    # (|a|·Δ, p·Δ, Δ1 + Δ2 and bound + L·Δ, with 0 under 0*e, under <>e at
    # p = 0 and for ReLU-only nodes), and must agree to the bit.  Every root
    # spends at most ε, and the samples stay within what it proves.
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    exprs = [random_expr(rng, depth, d) for _ in range(roots)]
    box = DomainBox.cube(-1, 1, d)
    try:
        outs, report = approximate_all(exprs, p, box, eps)
    except CertificateError:
        reject()  # an image too wide for a 4097-knot grid at its share of eps
    _, steps, _, _ = _planned(tuple(exprs), p, box, eps)
    proven: dict = {}

    def prove(node, kids):
        if node.traits.relu_only:
            return 0.0
        if isinstance(node, Scale):
            return 0.0 if node.factor == 0.0 else abs(node.factor) * kids[0]
        if isinstance(node, Diamond):
            return 0.0 if p == 0 else p * kids[0]
        if isinstance(node, Add):
            return kids[0] + kids[1]
        if node not in steps:
            return math.nan  # must be read only where the rules give 0
        it = steps[node].it
        proven[node] = it.bound + it.lipschitz * kids[0]
        return proven[node]

    assert report.proven_eps == tuple(fold_all(exprs, prove))
    assert [r.proven for r in report.applications] == list(proven.values())
    assert all(proven <= eps for proven in report.proven_eps)
    rhos = uniform_distance_estimates(exprs, outs, p, box, 300, seed % 1000)
    assert all(rho <= proven + ROUNDING for rho, proven in zip(rhos, report.proven_eps))


def test_twenty_term_sin_sum_certifies():
    # Halving eps at every binary + would leave the leftmost term eps / 2**19,
    # more than a 4097-knot grid resolves.
    e = parse(" + ".join(f"sin(P{1 + k % 3})" for k in range(20)))
    box = DomainBox.cube(-1, 1, 3)
    (out,), report = approximate_all([e], 2, box, 0.01)
    assert classify(out).relu_only
    assert report.proven_eps[0] <= 0.01
    # The sum reads its three distinct terms 7, 7 and 6 times: those are their
    # sensitivities, and the shares they weigh spend ε, as 20 shares of ε/20 did.
    assert [r.sensitivity for r in report.applications] == [7.0, 7.0, 6.0]
    spent = sum(r.sensitivity * r.eps for r in report.applications)
    assert 0.01 * (1 - 1e-5) <= spent <= 0.01
    assert uniform_distance_estimates((e,), (out,), 2, box, 2000, 3)[0] <= 0.01


def test_translated_three_layer_network_stays_small():
    t = mpnn_to_mplang(deep_mpnn(0, layers=3))
    box = DomainBox.cube(-1, 1, t.input_arity)
    outs, report = approximate_all(t.components, 3, box, 0.1)
    assert classify_all(outs).relu_only
    assert _dag_size(outs) <= 8000  # 44,552 if each path is approximated on its own
    # 111 knots when each node took the smallest share any parent demanded.
    assert sum(r.knots for r in report.applications) <= 50
    assert max(report.proven_eps) <= 0.1
    assert max(uniform_distance_estimates(t.components, outs, 3, box, 300, 4)) <= 0.1


def test_an_exact_argument_gets_the_whole_eps_on_its_image():
    eps = 0.01
    (out,), report = approximate_all([parse("sin(P1)")], 2, DomainBox.cube(-1, 1, 1), eps)
    (record,) = report.applications
    assert (record.eps, record.interval, record.delta) == (eps, Interval(-1.0, 1.0), None)
    full = relu_approximate(SIN, Interval(-1.0, 1.0), eps)
    assert record.knots == sum(a != 0.0 for a, _, _ in full.terms)
    assert out == approximate(parse("sin(P1)"), 2, DomainBox.cube(-1, 1, 1), eps)
    halved = relu_approximate(SIN, Interval(-1.0, 1.0).widen(eps / 2), eps / 2)
    assert record.knots < sum(a != 0.0 for a, _, _ in halved.terms)


def test_exact_terms_of_a_sum_take_no_share():
    box = DomainBox.cube(-1, 1, 2)
    _, report = approximate_all([parse("relu(P2) + sin(P1) + 0.5*P2 + tanh(P2)")], 1, box, 0.2)
    sin, tanh = report.applications
    assert (sin.sensitivity, tanh.sensitivity) == (1.0, 1.0)
    assert sin.eps + tanh.eps == pytest.approx(0.2, rel=1e-5) and sin.eps + tanh.eps <= 0.2
    # Under a nonlinear argument the interpolant's interval is the image widened
    # by its argument's own proven error: p times tanh's.  An error at tanh
    # moves the root by p times sin's steepest slope there, which is 1.
    _, report = approximate_all([parse("sin(<>tanh(P1)) + 0.5*P1")], 3, box, 0.2)
    tanh, sin = report.applications
    assert sin.delta == 3 * tanh.proven and tanh.delta is None
    assert sin.interval == image_bounds(parse("<>tanh(P1)"), 3, box).widen(sin.delta)
    assert (tanh.sensitivity, sin.sensitivity) == (3.0, 1.0)
    assert tanh.sensitivity * tanh.eps + sin.eps <= 0.2


def test_an_id_application_is_its_arguments_approximant():
    box = DomainBox.cube(-1, 1, 1)
    (out,), report = approximate_all([parse("id(tanh(P1))")], 0, box, 0.1)
    tanh, ident = report.applications
    # No relu(x) - relu(-x) around tanh's interpolant, and the same proof.
    assert out == _relu_sum_expr(relu_approximate(TANH, tanh.interval, tanh.eps), Proj(1))
    # One ReLU: tanh's level is a bias, and its knot at 1 writes no term.
    assert [lyr.output_arity for lyr in compile_relu(out, 1).layers] == [1, 1]
    assert (ident.function, ident.knots, ident.proven) == ("id", 0, tanh.proven)
    # The offsets spend tanh's whole share.
    assert report.proven_eps == (tanh.proven,) and tanh.proven == pytest.approx(0.1, abs=1e-9)
    (exact,), _ = approximate_all([parse("id(P1)")], 0, box, 0.1)
    assert exact == parse("P1")


def test_an_exact_function_adds_no_error_so_its_argument_keeps_the_whole_budget():
    box = DomainBox.cube(-1, 1, 1)
    for f, knots in (("id", 0), ("relu", 1), ("abs", 1)):
        for wrapped, bare in ((f"{f}(tanh(P1))", "tanh(P1)"), (f"{f}({f}(sin(P1)))", "sin(P1)"),
                              (f"{f}(<>sin(P1)) + 0.5*P1", "<>sin(P1) + 0.5*P1")):
            (out,), report = approximate_all([parse(wrapped)], 2, box, 0.1)
            (want,), want_report = approximate_all([parse(bare)], 2, box, 0.1)
            # id(e) is e's approximant; relu and abs wrap it in their exact forms.
            assert (out is want) == (f == "id")
            assert report.proven_eps == want_report.proven_eps
            inner, *outer = report.applications
            assert inner == want_report.applications[0]
            for record in outer:
                # An exact f takes no share; its interval is widened by its
                # argument's proven error, which it passes on with slope 1.
                assert (record.function, record.knots, record.eps, record.lipschitz) == (
                    f, knots, 0.0, 1.0)
                assert record.delta == record.proven == report.proven_eps[0]
    _, report = approximate_all([parse("id(id(sin(P1)))")], 0, box, 0.1)
    assert [(r.function, r.knots) for r in report.applications] == [
        ("sin", 3), ("id", 0), ("id", 0)]
    # sin's grid is the one it has without abs around it: at ε, and at ε/p under <>.
    _, report = approximate_all([parse("abs(sin(P1))")], 3, box, 0.1)
    assert [(r.function, r.eps, r.knots) for r in report.applications] == [
        ("sin", 0.1, 3), ("abs", 0.0, 1)]
    _, report = approximate_all([parse("abs(<>sin(P1)) + 0.25*<>P1")], 3, box, 0.1)
    assert [(r.function, r.eps, r.knots) for r in report.applications] == [
        ("sin", 0.1 / 3, 3), ("abs", 0.0, 1)]


def test_an_exact_function_is_bounded_where_its_arguments_approximant_reaches():
    # sin(P1) - 1 on [0, 2] has the image [-1, 0], which ends at relu's kink:
    # relu's slope there is 0, but 1 just past 0, where sin's approximant reaches.
    box = DomainBox.cube(0, 2, 1)
    _, report = approximate_all([parse("relu(sin(P1) + -1)")], 0, box, 0.1)
    image = image_bounds(parse("sin(P1) + -1"), 0, box)
    assert image == Interval(-1.0, 0.0)
    sin, relu = report.applications
    assert (relu.lipschitz, relu.interval, relu.eps, relu.delta) == (
        1.0, image.widen(sin.proven), 0.0, sin.proven)
    assert report.proven_eps == (sin.proven,)


def test_an_exact_function_gives_its_argument_eps_over_its_slope():
    # A slope-2 form doubles its argument's error, so sin gets ε/2; a slope-1/2
    # form halves it, and sin gets 2ε.
    box = DomainBox.cube(-1, 1, 1)
    for f, slope in ((PiecewiseLinear(((0.0, 0.0), (1.0, 2.0))), 2.0),
                     (ReluSum(((1.0, 0.25, -2.0),)), 2.0), (ReluSum(((1.0, 0.0, 0.5),)), 0.5)):
        for p, arg in ((0, "sin(P1)"), (3, "sin(<>P1)")):
            e = Apply(f, parse(arg))
            (out,), report = approximate_all([e], p, box, 0.1)
            sin, outer = report.applications
            assert (outer.eps, outer.lipschitz, outer.delta) == (0.0, slope, sin.proven)
            assert (sin.eps, sin.sensitivity) == (0.1 / slope, slope)
            (proven,) = report.proven_eps
            assert proven == slope * sin.proven <= 0.1
            assert uniform_distance_estimates((e,), (out,), p, box, 200, 3)[0] <= proven + 1e-9


def test_knots_count_the_breakpoints_of_each_interpolant():
    box = DomainBox.cube(-1, 1, 1)
    _, report = approximate_all([parse("abs(P1) + relu(tanh(P1))")], 0, box, 0.1)
    abs_, tanh, relu = report.applications
    assert (abs_.knots, relu.knots) == (1, 1)
    # A grid's count is its hinges': one per knot where the slope turns, but
    # none at the interval's high end.  tanh is one cell, from -1 to 1,
    # which turns only at -1.
    hinges = relu_approximate(TANH, tanh.interval, tanh.eps).terms
    assert tanh.knots == sum(a != 0.0 for a, _, _ in hinges) == 1
    assert interpolant(TANH, tanh.interval, tanh.eps).knots == (-1.0, 1.0)
    _, report = approximate_all([parse("id(tanh(P1))")], 0, box, 0.1)
    assert [(r.function, r.knots) for r in report.applications] == [("tanh", 1), ("id", 0)]


def test_a_piecewise_linear_term_takes_no_share_and_a_piecewise_linear_argument_is_exact():
    # abs, id and relu of ReLU-only arguments add no error: the curved
    # function keeps the whole ε, on its argument's bare image.
    box = DomainBox.cube(-1, 1, 1)
    for text, p in (("abs(P1) + relu(tanh(P1))", 0),
                    ("id(<>P1) + -2*abs(relu(P1) + -0.5) + sin(P1)", 2),
                    ("tanh(abs(P1) + -0.5) + id(P1)", 0),
                    ("sigmoid(<>abs(P1)) + abs(P1)", 3)):
        e = parse(text)
        (out,), report = approximate_all([e], p, box, 0.1)
        assert classify(out).relu_only
        curved = [r for r in report.applications if r.m2 > 0.0]
        assert len(curved) == 1 and curved[0].eps == 0.1, text
        for record in report.applications:
            if record.m2 == 0.0 and record.delta is None:  # an exact f of an exact e
                assert record.proven == 0.0, text
        (proven,) = report.proven_eps
        assert proven == curved[0].proven <= 0.1
        (rho,) = uniform_distance_estimates((e,), (out,), p, box, 2000, 5)
        assert rho <= proven + ROUNDING, text
    # The argument of tanh is exact: no δ, and no widening of its image.
    _, report = approximate_all([parse("tanh(abs(P1) + -0.5)")], 0, box, 0.1)
    (_, tanh) = report.applications
    assert (tanh.delta, tanh.interval) == (None, Interval(-0.5, 0.5))


def test_a_shared_subterm_has_one_approximant():
    box = DomainBox.cube(-1, 1, 1)
    e = parse("sin(P1) + <>sin(P1)")
    (out,), report = approximate_all([e], 2, box, 0.1)
    assert isinstance(out.right, Diamond) and out.right.arg is out.left
    (record,) = report.applications
    # Read once as it is and p times through <>: a unit error moves the root by 3.
    assert (record.sensitivity, record.eps) == (3.0, 0.1 / 3)
    # Across roots too: the lines of a file share their parsed nodes.
    roots = [parse("tanh(P1) + 1"), parse("-3*tanh(P1)")]
    (first, second), report = approximate_all(roots, 2, box, 0.3)
    assert first.left is second.arg and len(report.applications) == 1
    # The larger of its sensitivities in the two roots.
    assert (report.applications[0].sensitivity, report.applications[0].eps) == (3.0, 0.3 / 3)
    assert report.proven_eps[1] == 3 * report.proven_eps[0]


def test_long_sin_sum_approximates_without_recursion():
    e = parse(" + ".join(f"sin(P{1 + k % 2})" for k in range(1200)))
    box = DomainBox.cube(-1, 1, 2)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        (out,), report = approximate_all([e], 1, box, 1.0)
        assert classify(out).relu_only and len(report.applications) == 2
    finally:
        sys.setrecursionlimit(old)
    assert uniform_distance_estimates((e,), (out,), 1, box, 200, 5)[0] <= 1.0


# The approx_nested benchmark's cases (bench/workloads.py), copied here so
# that tier-1 sees when their networks grow.
APPROX_NESTED = (
    ("sin(P1)", 0.5), ("sin(P1)", 0.1), ("sin(P1)", 0.01),
    ("tanh(<>P1)", 0.5), ("tanh(<>P1)", 0.1), ("tanh(<>P1)", 0.01),
    ("sin(<>tanh(P1)) + 0.5*P1", 0.1),
    ("-2*sin(P1)", 0.1), ("-2*sin(P1)", 0.01),
    ("sin(2*<>P1) + tanh(P1)", 0.1),
    ("abs(<>sin(P1)) + 0.25*<>P1", 0.1),
)


# Each case's knots per application, bottom-up.
APPROX_NESTED_KNOTS = ([1], [3], [5], [2], [4], [10], [3, 5], [3], [5], [11, 3], [3, 1])


def test_approx_nested_networks_get_no_bigger():
    box = DomainBox.cube(-1, 1, 1)
    dense = nonzero = 0
    outs = []
    for (text, eps), knots in zip(APPROX_NESTED, APPROX_NESTED_KNOTS):
        (out,), report = approximate_all([parse(text)], 3, box, eps)
        assert report.proven_eps[0] <= eps, text
        got = [r.knots for r in report.applications]
        assert len(got) == len(knots) and all(a <= b for a, b in zip(got, knots)), (text, got)
        outs.append(out)
        for lyr in compile_relu(out, 1).layers:
            weights = (lyr.w_self, lyr.w_neigh, lyr.bias)
            dense += sum(w.size for w in weights)
            nonzero += sum(np.count_nonzero(w) for w in weights)
    assert dense <= 447 and nonzero <= 221, (dense, nonzero)
    # The approximants read as trees, and their distinct nodes.
    tree = sum(fold_all(outs, lambda node, kids: 1 + sum(kids)))
    assert tree <= 606 and _dag_size(outs) <= 298, (tree, _dag_size(outs))


def test_each_application_walks_its_knots_at_most_twice(monkeypatch):
    # The plan's interpolant carries the knots, the grid, the tail gap and
    # the bound to the build and the report.  The first plan walks each
    # curved application once; the re-plan walks again only those whose
    # interval or share changed, so a lone curved application is walked once.
    calls = []
    walk = activations._knots
    monkeypatch.setattr(activations, "_knots", lambda *args: calls.append(args) or walk(*args))
    box = DomainBox.cube(-1, 1, 1)
    for text, eps in APPROX_NESTED:
        calls.clear()
        _, report = approximate_all([parse(text)], 3, box, eps)
        curved = [r for r in report.applications if r.m2 > 0.0]
        assert len(calls) == (1 if len(curved) == 1 else 2 * len(curved)), text
        assert set(calls) >= {(TANH if r.function == "tanh" else SIN, r.interval, r.eps)
                              for r in curved}, text


def test_a_dead_hinge_changes_only_the_breakpoints(monkeypatch):
    # The reference builds every interpolant as the full per-knot line,
    # constant past both end knots, so a knot at the interval's high end
    # writes a term that is 0 on it, and reads its Lipschitz constant from
    # that line's hinges.  Both prove the same, to the bit, in every record
    # but its breakpoints, and their approximants agree on a random union.
    cases = [((parse(text),), 3, DomainBox.cube(-1, 1, 1), eps) for text, eps in APPROX_NESTED]
    rng = np.random.default_rng(33)
    for _ in range(300):
        d = int(rng.integers(1, 3))
        roots = tuple(random_expr(rng, int(rng.integers(1, 6)), d)
                      for _ in range(int(rng.integers(1, 4))))
        eps = float(rng.choice([0.5, 0.1, 0.02]))
        cases.append((roots, int(rng.integers(0, 4)), DomainBox.cube(-1, 1, d), eps))

    def approximated(case):
        try:
            return approximate_all(*case)
        except CertificateError:
            return None  # an image too wide for a 4097-knot grid at its share of eps

    def with_the_full_line(f, y, eps):
        it = interpolant(f, y, eps)
        if not it.knots:
            return it
        points = tuple(zip(it.knots, it.values))
        full = pl_to_relu_sum(PiecewiseLinear(points))
        lip = max(map(abs, accumulate(c for a, _, c in full.terms if a)), default=0.0)
        return replace(it, relu_sum=full, lipschitz=lip)

    got = [approximated(case) for case in cases]
    monkeypatch.setattr(approx, "interpolant", with_the_full_line)
    want = [approximated(case) for case in cases]
    assert sum(w is not None for w in want) >= 250
    fewer = 0
    for (roots, p, box, _), g, w in zip(cases, got, want):
        assert (g is None) == (w is None)
        if w is None:
            continue
        (outs, report), (ref_outs, ref_report) = g, w
        assert report.proven_eps == ref_report.proven_eps
        assert ([replace(r, knots=0) for r in report.applications]
                == [replace(r, knots=0) for r in ref_report.applications])
        pairs = list(zip(report.applications, ref_report.applications))
        assert all(r.knots <= q.knots for r, q in pairs)
        fewer += sum(r.knots < q.knots for r, q in pairs)
        distances = uniform_distance_estimates(outs, ref_outs, p, box, 50, 0)
        assert max(distances, default=0.0) <= ROUNDING
    assert fewer > 0


# -- clipping tanh and sigmoid --------------------------------------------------------

def test_a_neighbor_sum_under_tanh_needs_the_same_knots_at_every_degree():
    # tanh is interpolated only where it is more than ε from ±1, so a wider
    # image, from a larger degree bound, adds no knot.  On [-3, 3] the clip
    # to [-2.65, 2.65] saves knots now that each cell spends the whole band,
    # so every grid is clipped: 10 knots, each a breakpoint.
    box = DomainBox.cube(-1, 1, 1)
    breakpoints = {}
    for p in (3, 100, 10**6):
        (_,), report = approximate_all([parse("tanh(<>P1)")], p, box, 0.01)
        (tanh,) = report.applications
        assert tanh.interval == Interval(-p, p) and tanh.grid.width <= 6.0
        assert tanh.grid != tanh.interval and tanh.tail_gap > 0.0
        assert report.proven_eps[0] <= 0.01
        assert len(interpolant(TANH, tanh.interval, tanh.eps).knots) == 10
        breakpoints[p] = tanh.knots
    assert breakpoints == {3: 10, 100: 10, 10**6: 10}


@pytest.mark.parametrize("seed", [0, 1])
def test_translated_four_layer_networks_certify(seed):
    # Over the whole images uniform grids need 9,111 and 4,626 cells, more
    # than 4,096; clipped, 3,298 and 2,606 knots; clipped and adaptive, about
    # 1,180 and 990; with ε allocated by sensitivity, 276 and 240; with
    # offsets that spend each cell's whole band, 202 and 175; walked left to
    # right, 201 and 175; with one knot search, 200 and 174.
    t = mpnn_to_mplang(deep_mpnn(seed, layers=4))
    box = DomainBox.cube(-1, 1, t.input_arity)
    outs, report = approximate_all(t.components, 3, box, 0.1)
    assert classify_all(outs).relu_only
    assert sum(r.knots for r in report.applications) <= (200, 174)[seed]
    assert all(r.knots >= r.knots_floor for r in report.applications)
    assert all(proven <= 0.1 for proven in report.proven_eps)
    rhos = uniform_distance_estimates(t.components, outs, 3, box, 300, seed)
    assert all(rho <= proven + ROUNDING for rho, proven in zip(rhos, report.proven_eps))


@pytest.mark.parametrize("seed", [0, 1])
def test_translated_five_layer_networks_certify(seed):
    # With uniform grids a tanh at ε ≈ 3.7e-7 on [-7.75, 7.75] needs 7,915
    # cells (seed 0); adaptive knots take the whole network in about 6,850
    # and 5,020, with ε allocated by sensitivity 993 and 791, with offsets 715
    # and 572, walked left to right 712 and 566, and with one knot search 709
    # and 566.
    # Approximated only: compiling these networks is much larger.
    t = mpnn_to_mplang(deep_mpnn(seed, layers=5))
    box = DomainBox.cube(-1, 1, t.input_arity)
    outs, report = approximate_all(t.components, 3, box, 0.1)
    assert classify_all(outs).relu_only
    assert sum(r.knots for r in report.applications) <= (709, 566)[seed]
    assert all(proven <= 0.1 for proven in report.proven_eps)
    rhos = uniform_distance_estimates(t.components, outs, 3, box, 2000, seed)
    assert all(rho <= proven + ROUNDING for rho, proven in zip(rhos, report.proven_eps))


@pytest.mark.parametrize("text",
                         ["tanh(8*P1)", "sigmoid(-20*P1)", "tanh(2*<>P1) + sigmoid(10*P1)"])
@pytest.mark.parametrize("eps", [0.1, 0.01, 1e-3, 0.3, 0.45])
def test_a_clipped_grid_proves_eps_exactly_in_floats(text, eps):
    # The clip's a = atanh(1 - ε) can leave f(a) a rounding short of 1 - ε:
    # its tail gap, and so the proven ε, would then exceed ε by an ulp.
    box = DomainBox.cube(-1, 1, 1)
    (out,), report = approximate_all([parse(text)], 3, box, eps)
    assert report.proven_eps[0] <= eps
    for record in report.applications:
        assert record.grid != record.interval and 0.0 < record.tail_gap <= record.eps
        assert record.proven <= record.eps
    (rho,) = uniform_distance_estimates((parse(text),), (out,), 3, box, 300, 7)
    assert rho <= report.proven_eps[0] + ROUNDING


# -- the sampler, through check and approx --------------------------------------------

def _sampled(capsys, argv):
    """The exit code, and the sampled maximum that check or approx prints."""
    code = main(argv)
    out = capsys.readouterr().out
    return code, float(out.split("max deviation = " if argv[0] == "check" else "rho_hat = ")[1]
                       .split()[0])


def test_distance_of_expression_to_itself_is_zero(capsys):
    e = "tanh(<>P1) + P1"
    argv = ["check", e, e, "--degree-bound", "2", "--trials", "500", "--seed", "3"]
    assert _sampled(capsys, argv) == (0, 0.0)


def test_distance_approaches_analytic_sup(capsys):
    code, est = _sampled(capsys, ["check", "P1", "0", "--degree-bound", "0", "--box", "[[-1,1]]",
                                  "--trials", "5000", "--seed", "11"])
    assert code == 5 and 0.99 <= est <= 1.0


def test_relu_is_identity_on_nonnegatives(capsys):
    argv = ["check", "relu(P1)", "P1", "--degree-bound", "2", "--box", "[[0,5]]",
            "--trials", "1000", "--seed", "23"]
    assert _sampled(capsys, argv) == (0, 0.0)


def test_distance_is_seed_deterministic(capsys):
    argv = ["approx", "--expr", "sin(P1)", "--degree-bound", "1", "--box", "[[-1,1]]",
            "--epsilon", "0.1", "--trials", "300", "--seed"]
    a, b, c = (_sampled(capsys, argv + [seed]) for seed in ("7", "7", "8"))
    assert a == b != c and a[0] == 0


def test_distance_arity_mismatch(capsys):
    assert main(["check", "P2", "P1", "--box", "[[-1,1]]", "--trials", "10", "--seed", "1"]) == 2
    assert "--box has dimension 1, operands need 2" in capsys.readouterr().err


@pytest.mark.parametrize("eps", [1e307, 3e307, 1e308])
@pytest.mark.parametrize("text", ["tanh(P1)", "sin(P1)"])
def test_an_eps_near_the_float_maximum_proves_what_it_builds(text, eps):
    # From about 2.3e307 on, 8*eps/sup|f''| overflows, and the grid must still
    # be the two-knot cell that the report proves.
    box = DomainBox.cube(-1, 1, 1)
    e = parse(text)
    (out,), report = approximate_all([e], 0, box, eps)
    (rho,) = uniform_distance_estimates((e,), (out,), 0, box, 2000, 0)
    assert rho <= report.proven_eps[0] <= eps
