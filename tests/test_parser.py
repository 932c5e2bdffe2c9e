import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generate import random_expr
from helpers import deep_mpnn, tree_copy
from mplangc.activations import RELU, Named
from mplangc.errors import ArityError
from mplangc.expressions import (
    Add,
    Apply,
    Diamond,
    ExprTuple,
    One,
    Proj,
    Scale,
    classify,
    fold_all,
    format_expr,
    max_projection,
)
from mplangc.parser import MPLangSyntaxError, parse
from mplangc.translate import mpnn_to_mplang


def test_parse_max_expression():
    e = parse("relu(P2 + -1*P1) + P1")
    assert e == Add(
        Apply(RELU, Add(Proj(2), Scale(-1.0, Proj(1)))),
        Proj(1),
    )


def test_parse_diamond():
    assert parse("<>P1") == Diamond(Proj(1))


def test_parse_number_is_scaled_unit():
    assert parse("3.5") == Scale(3.5, One())


def test_parse_unit_literal():
    assert parse("1") == One()
    assert parse("1*1") == Scale(1.0, One())


def test_parse_nested_diamond_and_parens():
    assert parse("<><>P1") == Diamond(Diamond(Proj(1)))
    assert parse("2*(P1 + P2)") == Scale(2.0, Add(Proj(1), Proj(2)))


def test_parse_exponent_numbers():
    assert parse("1e-3*P1") == Scale(1e-3, Proj(1))
    assert parse("2.5E+1") == Scale(25.0, One())


def test_parse_signed_constants_in_sums():
    assert parse("P1 + -2") == Add(Proj(1), Scale(-2.0, One()))
    assert parse("P1+-2") == Add(Proj(1), Scale(-2.0, One()))


def test_whitespace_insignificant():
    assert parse(" relu( P1 ) ") == parse("relu(P1)")


# Bad input -> the exact message and position parse reports for it.
SYNTAX_ERRORS = {
    "P0": ("projection index must be >= 1", 0),
    "foo(P1)": ("unknown function 'foo'", 0),
    "P1 +": ("unexpected 'end of input'", 4),
    "(P1": ("expected ')', found 'end of input'", 3),
    "P1 P2": ("unexpected 'P2' after expression", 3),
    "": ("unexpected 'end of input'", 0),
    "relu P1": ("expected '(', found 'P1'", 5),
    "P1 - P2": ("unexpected '-' after expression", 3),
    "$": ("unexpected character '$'", 0),
    "relu(P1) + $": ("unexpected character '$'", 11),
    # The bad character is reported before the grammar error before it.
    "P1 P2 $": ("unexpected character '$'", 6),
    "sin(P1) + sin(P1 P2)": ("expected ')', found 'P2'", 17),
    "sin(P1)+sin(P1)+sin(P1 +)": ("unexpected ')'", 24),
    "((P1)": ("expected ')', found 'end of input'", 5),
    "tanh(())": ("unexpected ')'", 6),
    "abs(P1,P2)": ("unexpected character ','", 6),
    "sin(P1 + $) + sin(P1 + $)": ("unexpected character '$'", 9),
    "<": ("unexpected character '<'", 0),
    ".": ("unexpected character '.'", 0),
    "1e5x": ("unexpected 'x' after expression", 3),
    "P1e3": ("unexpected 'e3' after expression", 2),
    "<>+P1": ("unexpected '+'", 2),
    "3 P1": ("unexpected 'P1' after expression", 2),
    "relu(P1))": ("unexpected ')' after expression", 8),
    "P1 + \n $": ("unexpected character '$'", 7),
    # A name is used only after its one binding, which ends with ";".
    "$9": ("unbound name '$9'", 0),
    "$1 = P1; sin($1) + $9": ("unbound name '$9'", 19),
    "$1 = P1; $1 = P2; $1": ("name '$1' is bound twice", 9),
    "$1 = sin(P1) $1": ("expected ';', found '$1'", 13),
    "$1 = sin(P1)": ("expected ';', found 'end of input'", 12),
    "$1 = $1 + P1; $1": ("unbound name '$1'", 5),
    "$2 = $1; $1 = P1; $2": ("unbound name '$1'", 5),
    "$1 = P1;": ("unexpected 'end of input'", 8),
    "$1 = P1; P1;": ("unexpected ';' after expression", 11),
    "$1 = P1; P1 + $1 = P1": ("unexpected '=' after expression", 17),
    "$ 1 = P1; $1": ("unexpected character '$'", 0),
    # A literal that overflows a float is refused where it stands.
    "1e400*P1": ("number '1e400' is out of range", 0),
    "P1 + -2e308": ("number '2e308' is out of range", 6),
    "<>(P1 + 1e999)": ("number '1e999' is out of range", 8),
}


@pytest.mark.parametrize("bad", list(SYNTAX_ERRORS))
def test_syntax_errors(bad):
    message, pos = SYNTAX_ERRORS[bad]
    with pytest.raises(MPLangSyntaxError) as err:
        parse(bad)
    assert (str(err.value), err.value.pos) == (f"{message} (at position {pos})", pos)


def test_a_name_reads_as_its_bound_expression():
    e = parse("$1 = sin(P1 + <>P2);\n $2 = $1 + 2*$1 ;$2 + <>(relu($2) + $1)")
    assert e is parse("sin(P1 + <>P2) + 2*sin(P1 + <>P2) + "
                      "<>(relu(sin(P1 + <>P2) + 2*sin(P1 + <>P2)) + sin(P1 + <>P2))")
    # A name is a factor: no parentheses are needed around a sum it names.
    assert parse("$1 = P1 + P2; 3*$1 + <>$1") is parse("3*(P1 + P2) + <>(P1 + P2)")
    # A sum that starts with a name is a root, not a binding.
    assert parse("$1 = P1 + P2; $1 + P1") is parse("(P1 + P2) + P1")


def test_a_tree_form_translation_text_parses_to_the_same_roots():
    for net, length in [(deep_mpnn(0, 3), 17_142), (deep_mpnn(seed=5), 620_800)]:
        roots = mpnn_to_mplang(net).components
        # A copy that shares no node prints as a tree: the form files had
        # before shared subterms were named.
        legacy = [format_expr(tree_copy(c)) for c in roots]
        assert sum(map(len, legacy)) == length and "$" not in "".join(legacy)
        assert all(parse(text) is c for text, c in zip(legacy, roots))


def test_too_deep_nesting_is_a_syntax_error():
    with pytest.raises(MPLangSyntaxError, match="nested too deeply"):
        parse("sin(" * 400 + "P1" + ")" * 400)


def test_syntax_error_carries_position():
    with pytest.raises(MPLangSyntaxError) as err:
        parse("relu(P1) + $")
    assert err.value.pos == 11
    assert "position 11" in str(err.value)


# The lexemes of the grammar, for putting whitespace between them.
LEXEME = re.compile(r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?"
                    r"|P\d+|[A-Za-z_]\w*|<>|[-+*()]")


def _spaced(text, gaps):
    lexemes = LEXEME.findall(text)
    assert "".join(lexemes) == text.replace(" ", "")
    return "".join(lex + gaps[k % len(gaps)] for k, lex in enumerate(lexemes))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    gaps=st.lists(st.sampled_from(["", " ", "\t", "\n  ", "   "]), min_size=1, max_size=60),
    other_gaps=st.lists(st.sampled_from(["", " ", "\r\n"]), min_size=1, max_size=60),
)
def test_whitespace_between_lexemes_changes_nothing(seed, gaps, other_gaps):
    rng = np.random.default_rng(seed)
    e = random_expr(rng, depth=int(rng.integers(0, 6)), d=int(rng.integers(1, 4)))
    text = format_expr(e)
    assert format_expr(parse(_spaced(text, gaps))) == text
    # Two spellings of one group are one node.
    both = parse(f"sin({_spaced(text, gaps)}) + <>({_spaced(text, other_gaps)})")
    assert both.left.arg is both.right.arg
    assert format_expr(both.left.arg) == text


def test_repeated_groups_are_one_node():
    e = parse("sin(P1+P2) + sin( P1 + P2 ) + (P1 +P2)")
    assert e.left.left is e.left.right
    assert e.right is e.left.left.arg


def test_signed_zero_factors_stay_apart_in_repeated_groups():
    e = parse("sin(-0.0*P1) + sin(0.0*P1) + sin(-0.0*P1) + (0.0*P1) + sin(0.0*P1)")
    negative, positive = e.left.left.left.left, e.left.left.left.right
    assert e.left.left.right is negative and e.right is positive
    assert e.left.right is positive.arg
    assert negative is not positive and negative.arg.arg is positive.arg.arg
    assert math.copysign(1.0, negative.arg.factor) == -1.0
    assert math.copysign(1.0, positive.arg.factor) == 1.0


def test_separate_parses_share_nodes():
    first, second = [parse(text) for text in
                     ["sin(P1 + <>P2) + 1", "<>(P1 + <>P2) + -3*sin(P1 + <>P2)"]]
    assert second.right.arg is first.left
    assert second.left.arg is first.left.arg
    assert [format_expr(e) for e in (first, second)] == [
        "sin(P1 + <>P2) + 1", "<>(P1 + <>P2) + -3.0*sin(P1 + <>P2)"]


def test_a_translation_file_parses_to_one_dag():
    t = mpnn_to_mplang(deep_mpnn(seed=5))
    texts = [format_expr(c) for c in t.components]

    def size(roots):
        nodes = []
        fold_all(roots, lambda node, kids: nodes.append(node))
        return len(nodes)

    together = [parse(text) for text in texts]
    assert [format_expr(e) for e in together] == texts
    # The lines share their nodes, as the translation's components do: 215
    # distinct nodes, not the 3 x 187 of three unshared parses.
    assert size([parse(text) for text in texts]) == 215
    assert size(together) == 215


@pytest.mark.parametrize("bad", ["sin(P1", "relu(P1) + @", "(P1 + P2)) ", "2*<>"])
def test_an_error_is_reported_the_same_among_other_texts(bad):
    with pytest.raises(MPLangSyntaxError) as alone:
        parse(bad)
    with pytest.raises(MPLangSyntaxError) as among:
        [parse(text) for text in ["relu(P1 + P2)", "sin(P1)", bad, "P1"]]
    assert str(among.value) == str(alone.value) and among.value.pos == alone.value.pos


def test_unknown_function_reported():
    with pytest.raises(MPLangSyntaxError, match="unknown function"):
        parse("softmax(P1)")


@pytest.mark.parametrize("seed", range(60))
def test_print_parse_roundtrip_random(seed):
    rng = np.random.default_rng(seed)
    e = random_expr(rng, depth=int(rng.integers(0, 7)), d=int(rng.integers(1, 5)))
    assert parse(format_expr(e)) == e


def test_roundtrip_tricky_scalars():
    for e in [
        Scale(1.0, One()),
        Scale(-0.5, Scale(3.0, One())),
        Scale(2.0, Add(One(), Proj(1))),
        Apply(Named("id"), Scale(1e-17, Proj(2))),
        Diamond(Scale(-2.0, Diamond(One()))),
    ]:
        assert parse(format_expr(e)) == e


def test_format_rejects_structured_activation():
    from mplangc.activations import ReluSum

    with pytest.raises(ValueError, match="concrete syntax"):
        format_expr(Apply(ReluSum(((1.0, 0.0, 1.0),)), Proj(1)))


# -- arity / classification ------------------------------------------------------

def test_arity_check_examples():
    with pytest.raises(ArityError):
        ExprTuple((Proj(2),), 1)
    ExprTuple((Proj(2),), 2)
    ExprTuple((One(),), 0)


def test_max_projection():
    assert max_projection(parse("relu(P2 + -1*P1) + P3")) == 3
    assert max_projection(One()) == 0


def test_classify_relu_only():
    t = classify(parse("relu(P1)"))
    assert t.relu_only and t.addition_free and t.summation_free and t.piecewise_linear


def test_classify_diamond():
    t = classify(parse("<>P1"))
    assert t.addition_free and not t.summation_free
    assert t.relu_only and t.piecewise_linear  # vacuously: no function applications at all


def test_classify_mixed():
    t = classify(parse("tanh(P1)+1"))
    assert not t.relu_only and not t.addition_free and not t.piecewise_linear


def test_classify_collects_all_functions():
    t = classify(parse("sin(tanh(P1) + relu(P2))"))
    assert not t.relu_only and not t.piecewise_linear
    # abs under relu and a sum: piecewise linear, but not ReLU-only.
    t = classify(parse("relu(abs(P1) + relu(P2))"))
    assert not t.relu_only and t.piecewise_linear


def test_proj_index_validation():
    with pytest.raises(ValueError):
        Proj(0)
