"""Acyclic directed mixed graphs with walk-based separation, Markov
statement generators, linear Gaussian semantics, do-calculus and exact
structure learning."""

from types import ModuleType as _ModuleType

from .errors import (
    AmpAdmgError,
    DirectedCycleError,
    DoubleArrowError,
    DoubleEdgeError,
    ErrorNodeInZError,
    GraphValidationError,
    LineBiarrowMixError,
    MalformedQueryError,
    NoFeasibleModelError,
    NodeNotInSetError,
    NodeOutOfRangeError,
    NotAnAmpCgError,
    OverlappingSetsError,
    ParseError,
    ProblemTooLargeError,
    SelfEdgeError,
    SingularSubmatrixError,
    UnsupportedDialectError,
)
from .graph import Dialect, MixedGraph, parse, serialize, set_index, set_members
from .separation import (
    SeparationQuery,
    augmented_graph,
    connects_route,
    extended_subgraph,
    marginal_graph,
    separated,
)
from .markov import (
    CiStatement,
    amp_statements,
    gaussian_oracle,
    markov_blanket,
    ordered_local_statements,
    ordered_pairwise_statements,
    separation_oracle,
    verify_statements,
)
from .sem import (
    LinearSem,
    ci_test,
    determined_closure,
    implied_covariance,
    magnify,
    random_sem,
    separated_with_determinism,
)
from .docalc import (
    RuleApplication,
    check_derivation,
    intervene,
    parse_derivation,
    rule_applicable,
    with_regime_nodes,
)
from .learner import (
    Constraint,
    LearnProblem,
    LearnResult,
    atom_line,
    enumerate_graphs,
    export_asp,
    learn,
    parse_atom_line,
    parse_constraints,
    regime_graph,
    score,
)

__version__ = "0.1.0"

__all__ = [name for name, obj in sorted(globals().items())
           if not name.startswith("_") and not isinstance(obj, _ModuleType)]
