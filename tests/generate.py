"""Seed-deterministic random expressions and networks for the oracle suites."""

from __future__ import annotations

import numpy as np

from mplangc.activations import ABS, ID, RELU, SIGMOID, SIN, TANH, Activation
from mplangc.expressions import Add, Apply, Diamond, Expr, One, Proj, Scale
from mplangc.mpnn import Layer, Mpnn

__all__ = ["random_expr", "random_relu_expr", "random_mpnn", "MIXED_FUNCTIONS"]

MIXED_FUNCTIONS: tuple[Activation, ...] = (TANH, SIGMOID, SIN, ABS, RELU)


def random_expr(
    rng: np.random.Generator,
    depth: int,
    d: int,
    functions: tuple[Activation, ...] = MIXED_FUNCTIONS,
    scale_range: tuple[float, float] = (-2.0, 2.0),
) -> Expr:
    """Uniform over constructors within the depth budget."""
    def leaf() -> Expr:
        if d >= 1 and rng.random() < 0.8:
            return Proj(int(rng.integers(1, d + 1)))
        return One()

    if depth <= 0:
        return leaf()
    kind = int(rng.integers(0, 6))
    if kind == 0:
        return One()
    if kind == 1:
        return leaf()
    if kind == 2:
        a = float(rng.uniform(*scale_range))
        return Scale(a, random_expr(rng, depth - 1, d, functions, scale_range))
    if kind == 3:
        return Add(
            random_expr(rng, depth - 1, d, functions, scale_range),
            random_expr(rng, depth - 1, d, functions, scale_range),
        )
    if kind == 4:
        f = functions[int(rng.integers(0, len(functions)))]
        return Apply(f, random_expr(rng, depth - 1, d, functions, scale_range))
    return Diamond(random_expr(rng, depth - 1, d, functions, scale_range))


def random_relu_expr(rng: np.random.Generator, depth: int, d: int) -> Expr:
    return random_expr(rng, depth, d, functions=(RELU,))


def random_mpnn(
    rng: np.random.Generator,
    input_arity: int,
    max_layers: int = 3,
    max_arity: int = 3,
    activations: tuple[Activation, ...] = (ID, RELU, TANH, SIGMOID, SIN, ABS),
) -> Mpnn:
    n_layers = int(rng.integers(1, max_layers + 1))
    arities = [input_arity] + [
        int(rng.integers(1, max_arity + 1)) for _ in range(n_layers)
    ]
    layers = []
    for i in range(n_layers):
        d, r = arities[i], arities[i + 1]
        layers.append(
            Layer(
                rng.uniform(-2.0, 2.0, size=(r, d)),
                rng.uniform(-2.0, 2.0, size=(r, d)),
                rng.uniform(-1.0, 1.0, size=r),
                activations[int(rng.integers(0, len(activations)))],
            )
        )
    return Mpnn(tuple(layers))
