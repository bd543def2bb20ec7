"""Order-aware and order-independent evaluation of full-page text-recognition
transcripts: WER/CER, bag-of-words WER, assignment-based WER/CER, a
reading-order distance, and a distortion simulator for controlled studies.
"""

from .assign import (
    CostMatrix,
    build_cost_matrix,
    hcer,
    hwer,
    reorder_hypothesis,
    solve_assignment,
)
from .bow import bag_distance, beta_wer, bwac, bwer, word_bag
from .core import (
    Alignment,
    EditCounts,
    EmptyReferenceError,
    EvalError,
    IngestionError,
    PageTranscript,
    StructureError,
    Trace,
    join_words,
    tokenize_page,
)
from .editdist import (
    cer,
    char_edit_distance,
    edit_distance,
    page_wer_by_lines,
    page_wer_concat,
    wer,
)
from .reading_order import nsfd, renumber
from .report import CorpusReport, PageReport, aggregate, evaluate_page
from .simulate import (
    DistortionConfig,
    distort_chars,
    distort_corpus,
    predict_bwer_split_increase,
    predict_nsfd_splits,
    predict_nsfd_swaps,
    predict_twer,
    tcer,
)

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "CorpusReport",
    "CostMatrix",
    "DistortionConfig",
    "EditCounts",
    "EmptyReferenceError",
    "EvalError",
    "IngestionError",
    "PageReport",
    "PageTranscript",
    "StructureError",
    "Trace",
    "aggregate",
    "bag_distance",
    "beta_wer",
    "build_cost_matrix",
    "bwac",
    "bwer",
    "cer",
    "char_edit_distance",
    "distort_chars",
    "distort_corpus",
    "edit_distance",
    "evaluate_page",
    "hcer",
    "hwer",
    "join_words",
    "nsfd",
    "page_wer_by_lines",
    "page_wer_concat",
    "predict_bwer_split_increase",
    "predict_nsfd_splits",
    "predict_nsfd_swaps",
    "predict_twer",
    "renumber",
    "reorder_hypothesis",
    "solve_assignment",
    "tcer",
    "tokenize_page",
    "wer",
    "word_bag",
]
