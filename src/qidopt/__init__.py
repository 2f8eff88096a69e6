"""qidopt: a quantum-circuit superoptimizer.

Enumerates every circuit over a gate set up to a qubit/depth bound,
fingerprints the unitaries into an identity database, and optimizes input
circuits by tile-based substitution against that database, minimizing
effective depth.
"""

from .circuit import (
    Cell,
    CircuitGrid,
    StructuralError,
    circuit_unitary,
    effective_depth,
    enumerate_layers,
    half,
    layer_unitary,
    single,
    validate,
)
from .database import (
    IdentityDatabase,
    encode_circuit,
    load,
    save,
)
from .fingerprint import Fingerprint, canonicalize, fingerprint
from .gates import (
    BUILTIN_GATES,
    AngleExpr,
    GateDef,
    GateSet,
    ParamGateTemplate,
    instantiate_param_gate,
    make_gate,
)
from .generator import (
    GeneratorConfig,
    build_database,
    enumerate_circuits,
    scaling_count,
)
from .matrices import is_unitary, max_abs_diff
from .optimizer import (
    OptimizeReport,
    Tile,
    TileClass,
    TileSpec,
    apply_substitution,
    classify_tile,
    extract_tiles,
    lookup,
    normalize_cut_tile,
    optimize,
)
from .qasm import QasmError, emit, parse

__version__ = "0.1.0"

__all__ = [
    "AngleExpr",
    "BUILTIN_GATES",
    "Cell",
    "CircuitGrid",
    "Fingerprint",
    "GateDef",
    "GateSet",
    "GeneratorConfig",
    "IdentityDatabase",
    "OptimizeReport",
    "ParamGateTemplate",
    "QasmError",
    "StructuralError",
    "Tile",
    "TileClass",
    "TileSpec",
    "apply_substitution",
    "build_database",
    "canonicalize",
    "circuit_unitary",
    "classify_tile",
    "effective_depth",
    "emit",
    "encode_circuit",
    "enumerate_circuits",
    "enumerate_layers",
    "extract_tiles",
    "fingerprint",
    "half",
    "instantiate_param_gate",
    "is_unitary",
    "layer_unitary",
    "load",
    "lookup",
    "make_gate",
    "max_abs_diff",
    "normalize_cut_tile",
    "optimize",
    "parse",
    "save",
    "scaling_count",
    "single",
    "validate",
]
