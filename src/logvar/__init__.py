"""Variable-aware log abstraction toolkit.

Tags each token of a log message as static text or as one of ten dynamic
variable categories (char-CNN + word embedding + Bi-LSTM + CRF), and emits
log templates in which selected categories keep their concrete values while
the rest are abstracted to wildcards.
"""

from .corpus import (
    AnnotatedLog,
    SplitSpec,
    derive_binary_annotations,
    read_annotations,
    split_dataset,
    tokenize,
    write_annotations,
)
from .embed import CharVocab, EncodedLog, WordVocab, build_vocabs, encode_log, load_word_vectors
from .evaluate import MetricsReport, category_prf, evaluate, general_accuracy, variable_aware_accuracy
from .parse import ParseResult, TemplateStore, extract_template, parse_corpus
from .synth import generate_synthetic
from .tagger import (
    Hyperparams,
    TaggerModel,
    decode,
    init_model,
    tag_log,
    tag_logs,
)
from .taxonomy import Tag, VariableCategory, is_valid_transition, tag_vocabulary
from .train import TrainConfig, finetune, load_model, save_model, train

__version__ = "0.1.0"

__all__ = [
    "AnnotatedLog", "CharVocab", "EncodedLog", "Hyperparams",
    "MetricsReport", "ParseResult", "SplitSpec", "Tag", "TaggerModel",
    "TemplateStore", "TrainConfig", "VariableCategory", "WordVocab",
    "build_vocabs", "category_prf",
    "derive_binary_annotations", "encode_log", "evaluate", "extract_template",
    "finetune", "general_accuracy", "generate_synthetic",
    "init_model", "is_valid_transition", "load_model", "load_word_vectors",
    "parse_corpus", "read_annotations", "save_model", "split_dataset",
    "decode", "tag_log", "tag_logs", "tag_vocabulary", "tokenize", "train",
    "variable_aware_accuracy", "write_annotations",
]
