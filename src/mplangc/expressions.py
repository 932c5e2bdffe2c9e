"""MPLang abstract syntax: six constructors, syntactic traits, ExprTuple's arity check.

Expressions are hash-consed DAGs: a constructor returns the one live node with
its fields, whoever calls it, so equal subterms are one object.  The lookup is
in the node classes' ``__new__``; they have no metaclass, so ``isinstance`` on
a node stays on CPython's fast path.  A new node gets its children, in its
``kids`` slot, and its ``ExprTraits`` (syntactic classes and arity), in
O(1) from its children's, so no walk exists only to find them; a node whose
traits are a child's holds that child's traits object.  A miss stores the
node in one step: a weak reference written straight into the table under
its lock.

Every walk over expressions is a ``fold``, one iterative post-order pass over
distinct nodes, keyed by the nodes themselves.  Its schedule, ``post_order``,
gives the nodes in that order and how often each is read; a walk of several
passes, such as ``format_expr``'s, computes it once and reads it in each.

The concrete text form (see parser) writes the neighbor-sum operator as
``<>``, scaling as ``a*e``, a bare number ``a`` as shorthand for ``a*1``, and
a long subterm read more than once as one binding ``$k = e;`` that is read as
``$k``.
"""

from __future__ import annotations

import math
import operator
import threading
import weakref
from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple, Sequence, TypeVar, Union

from .activations import Activation, Named, RELU, curvature
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
    "post_order",
    "max_projection",
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
# The table's own dict of weak references.  A lookup reads it directly, and a
# store writes it directly, which saves WeakValueDictionary's Python calls on
# every constructor call; a dead reference reads as a missing node.  A
# reference made with the table's own callback is removed when its node dies,
# unless a live one has replaced it by then.
_REFS = _NODES.data
_REMOVE = _NODES._remove


class ExprTraits(NamedTuple):
    """The syntactic classes and the input arity: the classes pick a compile
    route, and the approximator reads piecewise_linear as exact."""

    relu_only: bool  # every function applied is relu
    addition_free: bool
    summation_free: bool
    piecewise_linear: bool  # every function applied has curvature 0
    max_projection: int = 0  # the largest projection index, 0 if none


def _join(a: ExprTraits, b: ExprTraits) -> ExprTraits:
    """The traits of two expressions taken together; a or b itself if it has them."""
    t = (a.relu_only and b.relu_only, a.addition_free and b.addition_free,
         a.summation_free and b.summation_free, a.piecewise_linear and b.piecewise_linear,
         max(a.max_projection, b.max_projection))
    return a if t == a else b if t == b else ExprTraits(*t)


# The traits of One.
_NO_TRAITS = ExprTraits(True, True, True, True)


# The longest text repr gives a node, subterms included.
_REPR_WIDTH = 80


class _Node:
    """A node's class returns the table's node for its fields, if any, and
    else builds, validates and stores a new one (see _build).  Each node holds
    its traits and its children (its fields that are nodes, left to right) in
    slots that are in neither its fields, the intern key nor equality.  A node
    is immutable: its fields are set once, in _fill."""

    __slots__ = ("__weakref__", "traits", "kids")
    traits: ExprTraits
    kids: tuple[Expr, ...]

    def __new__(cls, *values):
        key = (cls, *values)
        if cls is Scale:
            key += (math.copysign(1.0, values[0]),)
        ref = _REFS.get(key)
        node = ref() if ref is not None else None
        if node is None:
            new = _build(cls, values)
            with _STORE:
                ref = _REFS.get(key)
                node = ref() if ref is not None else None
                if node is None:
                    node = new
                    _REFS[key] = weakref.KeyedRef(new, _REMOVE, key)
        return node

    def __reduce__(self):
        """pickle writes the node's DAG as one flat post-order list of (class,
        own field values, child positions), which _rebuild reads back through
        the constructors: no pickle frame nests, whatever the depth, and the
        result is the interned node."""
        records: list[tuple] = []

        def record(node: Expr, kids: tuple[int, ...]) -> int:
            records.append((type(node), _own(node), kids))
            return len(records) - 1

        fold(self, record)
        return _rebuild, (records,)

    def __copy__(self) -> Expr:
        """The node itself, which is immutable."""
        return self

    def __deepcopy__(self, memo) -> Expr:
        """The node itself, which is immutable: no walk, whatever its depth."""
        return self

    def __repr__(self) -> str:
        """The constructor call, each node's text cut to _REPR_WIDTH characters,
        so a shared DAG's repr costs time linear in its distinct nodes."""

        def text(node: Expr, kids: tuple[str, ...]) -> str:
            own = [repr(v) for v in _own(node)]
            out = f"{type(node).__name__}({', '.join([*own, *kids])})"
            return out if len(out) <= _REPR_WIDTH else out[:_REPR_WIDTH - 3] + "..."

        return fold(self, text)


def _own(node: Expr) -> tuple:
    """The node's field values that are not nodes; in every class they come
    before its children, so cls(*_own(node), *node.kids) is node."""
    return tuple([v for name in node.__match_args__
                  if not isinstance(v := getattr(node, name), _Node)])


def _rebuild(records: list[tuple]) -> Expr:
    """The last node of a __reduce__ record list, each built from its class,
    its own field values and the nodes at its child positions."""
    built: list[Expr] = []
    for cls, own, kids in records:
        built.append(cls(*own, *[built[k] for k in kids]))
    return built[-1]


# Sets a slot of a frozen node past its __setattr__; only _build and _fill do.
_set = object.__setattr__


def _build(cls, values: tuple) -> Expr:
    """A new node of cls with the field values, past the intern table: its
    class's _fill validates and sets the fields and gives the node's children
    and traits."""
    node = object.__new__(cls)
    kids, traits = node._fill(*values)
    _set(node, "kids", kids)
    _set(node, "traits", traits)
    return node


@dataclass(frozen=True, slots=True, eq=False, repr=False, init=False)
class One(_Node):
    def _fill(self) -> tuple[tuple, ExprTraits]:
        return (), _NO_TRAITS


@dataclass(frozen=True, slots=True, eq=False, repr=False, init=False)
class Proj(_Node):
    index: int  # 1-based

    def _fill(self, index) -> tuple[tuple, ExprTraits]:
        # Proj(3.0) shares Proj(3)'s intern key, so it is Proj(3) whether or
        # not that is live, and prints P3; any other non-int is a TypeError.
        if isinstance(index, float) and index.is_integer():
            index = int(index)
        index = operator.index(index)
        if index < 1:
            raise ValueError("projection index must be >= 1")
        _set(self, "index", index)
        return (), ExprTraits(True, True, True, True, index)


@dataclass(frozen=True, slots=True, eq=False, repr=False, init=False)
class Scale(_Node):
    factor: float  # finite
    arg: "Expr"

    def _fill(self, factor, arg) -> tuple[tuple, ExprTraits]:
        factor = float(factor)
        if not math.isfinite(factor):
            raise ValueError(f"scale factor must be finite, got {factor!r}")
        _set(self, "factor", factor)
        _set(self, "arg", arg)
        return (arg,), arg.traits


@dataclass(frozen=True, slots=True, eq=False, repr=False, init=False)
class Add(_Node):
    left: "Expr"
    right: "Expr"

    def _fill(self, left, right) -> tuple[tuple, ExprTraits]:
        _set(self, "left", left)
        _set(self, "right", right)
        t = _join(left.traits, right.traits)
        return (left, right), t._replace(addition_free=False) if t.addition_free else t


@dataclass(frozen=True, slots=True, eq=False, repr=False, init=False)
class Apply(_Node):
    func: Activation
    arg: "Expr"

    def _fill(self, func, arg) -> tuple[tuple, ExprTraits]:
        _set(self, "func", func)
        _set(self, "arg", arg)
        t = arg.traits
        relu_only = t.relu_only and func == RELU
        piecewise_linear = t.piecewise_linear and curvature(func) == 0.0
        if relu_only != t.relu_only or piecewise_linear != t.piecewise_linear:
            t = t._replace(relu_only=relu_only, piecewise_linear=piecewise_linear)
        return (arg,), t


@dataclass(frozen=True, slots=True, eq=False, repr=False, init=False)
class Diamond(_Node):
    arg: "Expr"

    def _fill(self, arg) -> tuple[tuple, ExprTraits]:
        _set(self, "arg", arg)
        t = arg.traits
        return (arg,), t._replace(summation_free=False) if t.summation_free else t


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
        if self.input_arity < 0:
            raise ArityError(f"--arity must be nonnegative, got {self.input_arity}")
        if max(map(max_projection, self.components)) > self.input_arity:
            raise ArityError(f"component uses projection beyond arity {self.input_arity}")

    @property
    def output_arity(self) -> int:
        return len(self.components)


def children(e: Expr) -> tuple[Expr, ...]:
    """The operands of e, left to right."""
    if isinstance(e, _Node):
        return e.kids
    raise TypeError(f"not an expression: {e!r}")


def post_order(roots: Sequence[Expr]) -> tuple[list[Expr], dict[Expr, int]]:
    """The schedule of a fold over the DAG under the roots, without recursion:
    its distinct nodes, each after its children, children and roots left to
    right; and how often each is read, once per child slot of a parent and
    once per root slot.  Nodes are keyed by themselves: they hash by
    identity, which for hash-consed nodes is structural equality."""
    readers: dict[Expr, int] = {}
    expanded: set[Expr] = set()
    order: list[Expr] = []
    stack: list[tuple[Expr, bool]] = []
    for r in reversed(roots):
        children(r)  # a TypeError for a root that is not an expression
        readers[r] = readers.get(r, 0) + 1
        stack.append((r, False))
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if node in expanded:
            continue
        expanded.add(node)
        stack.append((node, True))
        for c in reversed(node.kids):
            readers[c] = readers.get(c, 0) + 1
            stack.append((c, False))
    return order, readers


def _run(roots: Sequence[Expr], order: list[Expr], unread: dict[Expr, int],
         combine: Callable[[Expr, tuple], T]) -> list[T]:
    """fold_all over the roots' post_order schedule; it counts the readers
    in unread down as they read, and drops a result no reader is left for."""
    results: dict[Expr, T] = {}
    for node in order:
        kids = node.kids
        args = tuple([results[c] for c in kids])
        for c in kids:
            unread[c] -= 1
            if not unread[c]:
                del results[c]
        results[node] = combine(node, args)
    return [results[r] for r in roots]


def fold_all(roots: Sequence[Expr], combine: Callable[[Expr, tuple], T]) -> list[T]:
    """Post-order fold over the DAG under the roots, without recursion.

    combine(node, child_results) runs once per distinct node object, in
    post_order, with the results of its children left to right, however many
    roots share it; the result is the list of the roots' results.  A result
    is dropped once the node's last parent has read it; a root's is kept.
    """
    return _run(roots, *post_order(roots), combine)


def fold(e: Expr, combine: Callable[[Expr, tuple], T]) -> T:
    """fold_all over the one root e."""
    return fold_all((e,), combine)[0]


def max_projection(e: Expr) -> int:
    """Largest projection index used, 0 if none."""
    return e.traits.max_projection


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
    roots = (e,)
    order, readers = post_order(roots)
    bindings: list[str] = []

    def text(node: Expr, kids: tuple[str, ...]) -> str:
        out = _format_node(node, kids)
        if readers[node] < 2 or len(out) < _NAME_WIDTH:
            return out
        name = _Name(f"${len(bindings) + 1}")
        bindings.append(f"{name} = {out}; ")
        return name

    (root,) = _run(roots, order, dict(readers), text)
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
