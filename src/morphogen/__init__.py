"""Character-level encoder-decoder inflection generation.

The decoder reads the source character stream directly alongside its own
previous output, with comparison variants (plain encoder-decoder, attention,
no-encoder), a Witten-Bell character LM for interpolation and reranking,
beam search with product-of-experts ensembling, and evaluation tooling.
"""

from .errors import (CheckpointError, DataError, DimensionError, MorphogenError,
                     SearchError, TrainError)
from .vocab import BOS, EOS, EPS, UNK, CharVocab
from .data import (DatasetSplit, Example, InflectionTable, build_vocab,
                   default_synth_spec, parse_dataset, split_tables,
                   synth_language, synth_wordlist, tables_to_examples,
                   write_dataset)
from .model import VARIANTS, ModelParams, init_model, load_model, save_model
from .charlm import WittenBellLM, filter_wordlist, lm_score_word, train_lm
from .search import (beam_decode, ensemble_next_dist, greedy_decode,
                     interpolated_next_dist)
from .reranker import (FEATURE_NAMES, RerankGroup, RerankModel, extract_features,
                       levenshtein, pro_train, rerank)
from .trainer import TrainConfig, train_ensemble, train_factored, train_joint
from .evaluate import (EvalReport, accuracy_by_length, evaluate_accuracy,
                       export_embeddings, vowel_harmony_check)

__version__ = "0.1.0"

__all__ = [
    "MorphogenError", "DimensionError", "DataError", "CheckpointError",
    "SearchError", "TrainError",
    "CharVocab", "BOS", "EOS", "EPS", "UNK",
    "Example", "InflectionTable", "DatasetSplit", "parse_dataset",
    "write_dataset", "build_vocab", "split_tables", "tables_to_examples",
    "default_synth_spec", "synth_language", "synth_wordlist",
    "VARIANTS", "ModelParams", "init_model", "save_model", "load_model",
    "WittenBellLM", "train_lm", "lm_score_word", "filter_wordlist",
    "greedy_decode", "beam_decode", "ensemble_next_dist",
    "interpolated_next_dist",
    "FEATURE_NAMES", "RerankGroup", "RerankModel", "extract_features",
    "levenshtein", "pro_train", "rerank",
    "TrainConfig", "train_factored", "train_joint", "train_ensemble",
    "EvalReport", "evaluate_accuracy", "accuracy_by_length",
    "vowel_harmony_check", "export_embeddings",
    "__version__",
]
