"""MPLang abstract syntax: six constructors, arity checks, syntactic traits.

Expressions are hash-consed DAGs: a constructor returns the one live node with
its fields, whoever calls it, so equal subterms are one object.  A new node
gets its ``ExprTraits`` (class and arity) in O(1) from its children's, so no
walk exists only to find them.  Every walk over expressions is a ``fold``,
one iterative post-order pass over distinct nodes.

The concrete text form (see parser) writes the neighbor-sum operator as
``<>``, scaling as ``a*e``, a bare number ``a`` as shorthand for ``a*1``, and
a long subterm read more than once as one binding ``$k = e;`` that is read as
``$k``.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, fields
from functools import reduce
from typing import Callable, NamedTuple, Sequence, TypeVar, Union

from .activations import Activation, Named, RELU
from .errors import ArityError

__all__ = [
    "Expr",
    "One",
    "Proj",
    "Scale",
    "Add",
    "Apply",
    "Diamond",
    "ExprTuple",
    "ExprTraits",
    "fold",
    "fold_all",
    "arity_check",
    "max_projection",
    "max_projections",
    "classify",
    "classify_all",
    "children",
    "format_expr",
    "const",
    "scaled",
    "sum_terms",
]


# (class, fields) -> the live node with them.  Children are keyed by identity
# (nodes hash by id), an activation by value, a factor by its value and its
# sign bit, so Scale(2, e) is Scale(2.0, e) but -0.0 stays apart from 0.0.
# Values are weak, so the table keeps no expression alive; a key holds the
# node's children, which the node holds anyway.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
# Held only to store a new node, so threads building equal nodes at once get one.
_STORE = threading.Lock()


class ExprTraits(NamedTuple):
    """The syntactic class and the input arity, which decide a compile route."""

    relu_only: bool
    addition_free: bool
    summation_free: bool
    functions_used: frozenset
    max_projection: int = 0  # the largest projection index, 0 if none


def _join(a: ExprTraits, b: ExprTraits) -> ExprTraits:
    """The traits of two expressions taken together; a or b itself if it has them."""
    t = ExprTraits(a.relu_only and b.relu_only, a.addition_free and b.addition_free,
                   a.summation_free and b.summation_free, a.functions_used | b.functions_used,
                   max(a.max_projection, b.max_projection))
    return a if t == a else b if t == b else t


# The traits of One, and what a + or a <> adds to its operands' traits.
_NO_TRAITS = ExprTraits(True, True, True, frozenset())
_PLUS = ExprTraits(True, False, True, frozenset())
_NEIGHBOR_SUM = ExprTraits(True, True, False, frozenset())


class _Interned(type):
    """Node classes whose call returns the table's node for the fields, if any,
    and else validates a new node and stores it."""

    def __call__(cls, *fields):
        key = (cls, *fields)
        if cls is Scale:
            key += (math.copysign(1.0, fields[0]),)
        node = _NODES.get(key)
        if node is None:
            new = super().__call__(*fields)
            with _STORE:
                node = _NODES.setdefault(key, new)
        return node


# The longest text repr gives a node, subterms included.
_REPR_WIDTH = 80


class _Node(metaclass=_Interned):
    """Each class's __post_init__ sets the node's traits from its children's,
    in a slot that is in neither its fields, the intern key nor equality."""

    __slots__ = ("__weakref__", "traits")
    traits: ExprTraits

    def __repr__(self) -> str:
        """The constructor call, each node's text cut to _REPR_WIDTH characters,
        so a shared DAG's repr costs time linear in its distinct nodes.  A
        node's children are its last fields."""

        def text(node: Expr, kids: tuple[str, ...]) -> str:
            own = [repr(v) for f in fields(node)
                   if not isinstance(v := getattr(node, f.name), _Node)]
            out = f"{type(node).__name__}({', '.join([*own, *kids])})"
            return out if len(out) <= _REPR_WIDTH else out[:_REPR_WIDTH - 3] + "..."

        return fold(self, text)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class One(_Node):
    def __post_init__(self):
        object.__setattr__(self, "traits", _NO_TRAITS)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Proj(_Node):
    index: int  # 1-based

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("projection index must be >= 1")
        object.__setattr__(self, "traits", ExprTraits(True, True, True, frozenset(), self.index))


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Scale(_Node):
    factor: float
    arg: "Expr"

    def __post_init__(self):
        object.__setattr__(self, "factor", float(self.factor))
        object.__setattr__(self, "traits", self.arg.traits)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Add(_Node):
    left: "Expr"
    right: "Expr"

    def __post_init__(self):
        object.__setattr__(self, "traits", _join(_join(self.left.traits, self.right.traits), _PLUS))


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Apply(_Node):
    func: Activation
    arg: "Expr"

    def __post_init__(self):
        own = ExprTraits(self.func == RELU, True, True, frozenset((self.func,)))
        object.__setattr__(self, "traits", _join(self.arg.traits, own))


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Diamond(_Node):
    arg: "Expr"

    def __post_init__(self):
        object.__setattr__(self, "traits", _join(self.arg.traits, _NEIGHBOR_SUM))


Expr = Union[One, Proj, Scale, Add, Apply, Diamond]
T = TypeVar("T")


@dataclass(frozen=True)
class ExprTuple:
    """Tuple of expressions over a shared input arity; output arity = len."""

    components: tuple[Expr, ...]
    input_arity: int

    def __post_init__(self):
        if not self.components:
            raise ValueError("expression tuple must be nonempty")
        if max(max_projections(self.components)) > self.input_arity:
            raise ArityError(f"component uses projection beyond arity {self.input_arity}")

    @property
    def output_arity(self) -> int:
        return len(self.components)


def children(e: Expr) -> tuple[Expr, ...]:
    """The operands of e, left to right."""
    if isinstance(e, (Scale, Apply, Diamond)):
        return (e.arg,)
    if isinstance(e, Add):
        return (e.left, e.right)
    if isinstance(e, (One, Proj)):
        return ()
    raise TypeError(f"not an expression: {e!r}")


def fold_all(roots: Sequence[Expr], combine: Callable[[Expr, tuple], T]) -> list[T]:
    """Post-order fold over the DAG under the roots, without recursion.

    combine(node, child_results) runs once per distinct node object, with the
    results of its children left to right, however many roots share it; the
    result is the list of the roots' results.  Nodes are told apart by id,
    which for hash-consed nodes is structural equality.  A result is dropped
    once the node's last parent has read it; a root's is kept.
    """
    parents: dict[int, int] = {}
    expanded: set[int] = set()
    order: list[tuple[Expr, tuple]] = []
    stack: list[tuple[Expr, tuple | None]] = []
    for r in reversed(roots):
        parents[id(r)] = parents.get(id(r), 0) + 1
        stack.append((r, None))
    while stack:
        node, kids = stack.pop()
        if kids is not None:
            order.append((node, kids))
            continue
        if id(node) in expanded:
            continue
        expanded.add(id(node))
        kids = children(node)
        stack.append((node, kids))
        for c in reversed(kids):
            parents[id(c)] = parents.get(id(c), 0) + 1
            stack.append((c, None))
    results: dict[int, T] = {}
    for node, kids in order:
        args = tuple([results[id(c)] for c in kids])
        for c in kids:
            parents[id(c)] -= 1
            if not parents[id(c)]:
                del results[id(c)]
        results[id(node)] = combine(node, args)
    return [results[id(r)] for r in roots]


def fold(e: Expr, combine: Callable[[Expr, tuple], T]) -> T:
    """fold_all over the one root e."""
    return fold_all((e,), combine)[0]


def max_projection(e: Expr) -> int:
    """Largest projection index used, 0 if none."""
    return e.traits.max_projection


def max_projections(roots: Sequence[Expr]) -> list[int]:
    """max_projection of each root."""
    return [r.traits.max_projection for r in roots]


def arity_check(e: Expr, d: int) -> bool:
    """True iff every projection index lies in 1..d."""
    return max_projection(e) <= d


def classify(e: Expr) -> ExprTraits:
    return e.traits


def classify_all(roots: Sequence[Expr]) -> ExprTraits:
    """The traits of the roots taken together."""
    return reduce(_join, (r.traits for r in roots), _NO_TRAITS)


# -- text form -----------------------------------------------------------------

def _num(a: float) -> str:
    return repr(float(a))


# A subterm read more than once is named if its text has at least this many
# characters: its binding and names then take fewer characters than its
# repeated text, and short ones such as 0.5*P1 stay inline.
_NAME_WIDTH = 24


class _Name(str):
    """The text ``$k`` that stands for a named subterm; a factor, so it needs no
    parentheses whatever the subterm is."""


def format_expr(e: Expr) -> str:
    """Concrete text for e; parse(format_expr(e)) reproduces e exactly.

    Each subterm that is read more than once and whose text has at least
    _NAME_WIDTH characters is printed once, as a binding ``$k = text;`` before
    the root, and read as ``$k``; so the text grows with e's DAG, not with its
    tree.  Any other subterm is printed inline, so an expression without a long
    shared subterm prints as a tree.
    """
    readers: dict[int, int] = {}

    def count(node: Expr, _) -> None:
        for c in children(node):
            readers[id(c)] = readers.get(id(c), 0) + 1

    fold(e, count)
    bindings: list[str] = []

    def text(node: Expr, kids: tuple[str, ...]) -> str:
        out = _format_node(node, kids)
        if readers.get(id(node), 0) < 2 or len(out) < _NAME_WIDTH:
            return out
        name = _Name(f"${len(bindings) + 1}")
        bindings.append(f"{name} = {out}; ")
        return name

    root = fold(e, text)
    return "".join(bindings) + root


def _format_node(e: Expr, kids: tuple[str, ...]) -> str:
    """The text of e at expression level, from its children's."""
    if isinstance(e, One):
        return "1"
    if isinstance(e, Proj):
        return f"P{e.index}"
    if isinstance(e, Add):
        # The grammar is left-associative, so a right-nested sum needs parens.
        return f"{kids[0]} + {_parenthesized(e.right, kids[1], Add)}"
    if isinstance(e, Scale):
        if isinstance(e.arg, One):
            return "1*1" if e.factor == 1.0 else _num(e.factor)
        return f"{_num(e.factor)}*{_parenthesized(e.arg, kids[0], (Add, Scale))}"
    if isinstance(e, Apply):
        if not isinstance(e.func, Named):
            raise ValueError("only named activations have a concrete syntax")
        return f"{e.func.name}({kids[0]})"
    return f"<>{_parenthesized(e.arg, kids[0], (Add, Scale))}"


def _parenthesized(e: Expr, text: str, needs_parens) -> str:
    """e's text as a term (parens around a sum) or a factor (also around a scaling)."""
    return f"({text})" if isinstance(e, needs_parens) and not isinstance(text, _Name) else text


# -- smart constructors ---------------------------------------------------------

def const(a: float) -> Expr:
    """The constant a, i.e. a*1 (or 1 itself)."""
    return One() if a == 1.0 else Scale(float(a), One())


def scaled(a: float, e: Expr) -> Expr:
    return e if a == 1.0 else Scale(float(a), e)


def sum_terms(terms: list[Expr]) -> Expr:
    """Left-associated sum; the empty sum is the constant 0."""
    if not terms:
        return Scale(0.0, One())
    out = terms[0]
    for t in terms[1:]:
        out = Add(out, t)
    return out
