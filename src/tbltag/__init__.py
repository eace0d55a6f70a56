"""Transformation-based tagging: error-driven rule learning over tagged text.

A most-frequent-tag baseline is refined by an ordered list of contextual
rewrite rules, learned greedily by net error reduction.  Two trainers are
provided: a simple per-pass rescanning reference and an incremental one
that keeps rule scores live between passes, with identical output.
"""

from .corpus import (
    BOUNDARY,
    Corpus,
    Lexicon,
    ParseError,
    Site,
    Token,
    accuracy,
    baseline_assign,
    build_lexicon,
    error_count,
    parse_corpus,
    serialize_corpus,
)
from .dependency import (
    DependencyNode,
    RecordingDisabledError,
    TreeClass,
    canonical_key,
    collect_classes,
    dependency_report,
    record_pass,
    render_tree,
)
from .evaluate import Curve, Tally, evaluate_curve, replay, tag, tag_stream
from .rules import (
    DEFAULT_TEMPLATE_SPEC,
    DEFAULT_TEMPLATES,
    DecodeError,
    Rule,
    RuleScore,
    Template,
    apply_rule,
    decode_rule,
    display_rule,
    encode_rule,
    find_sites,
    observe,
    parse_template_spec,
    position_sets,
    render_slots,
    render_template_spec,
    score_rule,
)
from .trainer_incremental import (
    AuditError,
    TrainerIndex,
    apply_and_update,
    init_index,
    train_incremental,
    verify_index,
)
from .trainer_naive import enumerate_candidates, train_naive
from .training import (
    Model,
    ModelFormatError,
    Strategy,
    TraceRecord,
    TrainerConfig,
    load_model,
    parse_model,
    format_model,
    save_model,
    select,
    trace_tsv,
)

__version__ = "0.1.0"
