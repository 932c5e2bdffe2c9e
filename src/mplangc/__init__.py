"""MPLang toolkit: parse expressions over graphs, interpret them, compile
them to message-passing networks, approximate them in ReLU form, and check
equivalences on randomized instances."""

from .activations import (
    ABS,
    ID,
    RELU,
    SIGMOID,
    SIN,
    TANH,
    Activation,
    Merged,
    Named,
    PiecewiseLinear,
    ReluSum,
    apply,
    apply_vec,
    interval_image,
    merge,
    modulus_delta,
    pl_to_relu_sum,
    relu_approximate,
)
from .approx import approximate, image_bounds, uniform_distance_estimate
from .compiler import (
    CompileEnv,
    CompileReport,
    LayerBounds,
    compile_addition_free,
    compile_expr,
    compile_mixed,
    compile_pointwise,
    compile_relu,
    compile_relu_tuple,
    layer_output_bounds,
    merge_layers,
    parallel_mixed,
)
from .errors import ArityError, CertificateError, ModeError
from .expressions import (
    Add,
    Apply,
    Diamond,
    Expr,
    ExprTuple,
    One,
    Proj,
    Scale,
    arity_check,
    classify,
    fold,
    format_expr,
    max_projection,
)
from .graphs import (
    FeatureMap,
    Graph,
    InvalidGraphError,
    RandomUnion,
    disjoint_union,
    random_features,
    random_graph,
    random_instances,
    random_union,
)
from .intervals import DomainBox, Interval
from .interpreter import eval_expr, eval_tuple
from .mpnn import (
    Layer,
    Mpnn,
    concat_layers,
    concat_mpnns,
    eliminate_id_layer,
    eval_layer,
    eval_mpnn,
    is_relu_mpnn,
    is_sigma_mpnn,
    layer,
    pad_relu,
    parallel_layers,
)
from .parser import MPLangSyntaxError, parse
from .translate import mpnn_to_mplang

__version__ = "0.1.0"
