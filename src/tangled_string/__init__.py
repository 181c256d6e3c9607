"""Pills-and-wires segmentation of event and basket sequences.

Scan a sequence with a bounded backward window; token recurrences knot
the string into trend intervals (pills), everything else stays on the
connecting wire.  Ships the scanner itself, 2D layout, change-point
extraction across window widths, CSV ingestion, a price-coincidence
evaluator and a CLI.
"""

from .emit import DEFAULT_KEY_EVENTS, SCHEMA_VERSION, document_dict, emit_dot, emit_json, schema_text
from .errors import (
    EmptyBasketError,
    EmptyEvaluationError,
    EmptySequenceError,
    ParseError,
    TangledStringError,
)
from .evaluator import (
    COMPARE_ENDPOINT,
    COMPARE_MEAN,
    CoincidenceCell,
    CoincidenceTable,
    DetectionScore,
    EvalParams,
    RegimeSpec,
    StabilityRecord,
    SyntheticSpec,
    coincidence_table,
    generate_synthetic,
    months_to_days,
    score_detection,
    tolerant_delay_check,
)
from .ingest import PriceSeries, parse_baskets, parse_date, parse_prices
from .layout import LayoutParams, LayoutResult, assign_positions, stretch
from .sequence import BasketSequence, Token, from_baskets, from_plain
from .tangler import (
    BASKET,
    ENTRANCE,
    EXIT,
    PLAIN,
    ChangePoint,
    KeyEvent,
    Match,
    Pill,
    TangleParams,
    TangleResult,
    change_points,
    key_pill_events,
    key_wire_events,
    sweep,
    tangle,
)

__version__ = "0.1.0"

__all__ = [
    "BASKET",
    "BasketSequence",
    "COMPARE_ENDPOINT",
    "COMPARE_MEAN",
    "ChangePoint",
    "CoincidenceCell",
    "CoincidenceTable",
    "DEFAULT_KEY_EVENTS",
    "DetectionScore",
    "ENTRANCE",
    "EXIT",
    "EmptyBasketError",
    "EmptyEvaluationError",
    "EmptySequenceError",
    "EvalParams",
    "KeyEvent",
    "LayoutParams",
    "LayoutResult",
    "Match",
    "PLAIN",
    "ParseError",
    "Pill",
    "PriceSeries",
    "RegimeSpec",
    "SCHEMA_VERSION",
    "StabilityRecord",
    "SyntheticSpec",
    "TangleParams",
    "TangleResult",
    "TangledStringError",
    "Token",
    "assign_positions",
    "change_points",
    "coincidence_table",
    "document_dict",
    "emit_dot",
    "emit_json",
    "from_baskets",
    "from_plain",
    "generate_synthetic",
    "key_pill_events",
    "key_wire_events",
    "months_to_days",
    "parse_baskets",
    "parse_date",
    "parse_prices",
    "schema_text",
    "score_detection",
    "stretch",
    "sweep",
    "tangle",
    "tolerant_delay_check",
]
