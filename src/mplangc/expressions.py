"""MPLang abstract syntax: six constructors, arity checks, syntactic traits.

Expressions are DAGs: the parser and the MPNN translation share repeated
subterms.  Every walk over them is a ``fold``, one iterative post-order pass
that handles each distinct node once.

The concrete text form (see parser) writes the neighbor-sum operator as
``<>``, scaling as ``a*e``, and a bare number ``a`` as shorthand for ``a*1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar, Union

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
    "arity_check",
    "max_projection",
    "classify",
    "format_expr",
    "const",
    "scaled",
    "sum_terms",
]


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Proj:
    index: int  # 1-based

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("projection index must be >= 1")


@dataclass(frozen=True)
class Scale:
    factor: float
    arg: "Expr"

    def __post_init__(self):
        object.__setattr__(self, "factor", float(self.factor))


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Apply:
    func: Activation
    arg: "Expr"


@dataclass(frozen=True)
class Diamond:
    arg: "Expr"


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
        for e in self.components:
            if not arity_check(e, self.input_arity):
                raise ArityError(
                    f"component uses projection beyond arity {self.input_arity}"
                )

    @property
    def output_arity(self) -> int:
        return len(self.components)


def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (Scale, Apply, Diamond)):
        return (e.arg,)
    if isinstance(e, Add):
        return (e.left, e.right)
    if isinstance(e, (One, Proj)):
        return ()
    raise TypeError(f"not an expression: {e!r}")


def fold(e: Expr, combine: Callable[[Expr, tuple], T]) -> T:
    """Post-order fold over the DAG under e, without recursion.

    combine(node, child_results) runs once per distinct node object, with the
    results of its children left to right.  Nodes are told apart by id, never
    by ==/hash: those recurse over the whole subtree, so on a shared DAG they
    cost time exponential in its depth.  A result is dropped once the node's
    last parent has read it.
    """
    parents: dict[int, int] = {}
    expanded: set[int] = set()
    order: list[tuple[Expr, tuple]] = []
    stack: list[tuple[Expr, tuple | None]] = [(e, None)]
    while stack:
        node, kids = stack.pop()
        if kids is not None:
            order.append((node, kids))
            continue
        if id(node) in expanded:
            continue
        expanded.add(id(node))
        kids = _children(node)
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
    return results[id(e)]


def max_projection(e: Expr) -> int:
    """Largest projection index used, 0 if none."""
    return fold(e, lambda node, kids: node.index if isinstance(node, Proj) else max(kids, default=0))


def arity_check(e: Expr, d: int) -> bool:
    """True iff every projection index lies in 1..d."""
    return max_projection(e) <= d


@dataclass(frozen=True)
class ExprTraits:
    relu_only: bool
    addition_free: bool
    summation_free: bool
    functions_used: frozenset


def classify(e: Expr) -> ExprTraits:
    functions: set[Activation] = set()
    kinds: set[type] = set()

    def visit(node: Expr, _) -> None:
        kinds.add(type(node))
        if isinstance(node, Apply):
            functions.add(node.func)

    fold(e, visit)
    return ExprTraits(
        relu_only=functions <= {RELU},
        addition_free=Add not in kinds,
        summation_free=Diamond not in kinds,
        functions_used=frozenset(functions),
    )


# -- text form -----------------------------------------------------------------

def _num(a: float) -> str:
    return repr(float(a))


def format_expr(e: Expr) -> str:
    """Concrete text for e; parse(format_expr(e)) reproduces e exactly."""
    return fold(e, _format_node)


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
    return f"({text})" if isinstance(e, needs_parens) else text


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
