import os
import subprocess
import sys

import pageval


def test_star_import_and_public_names_resolve():
    # a name deleted from its module but left in __all__ breaks star imports
    namespace: dict = {}
    exec("from pageval import *", namespace)
    assert [n for n in pageval.__all__ if not hasattr(pageval, n)] == []
    assert set(pageval.__all__) <= namespace.keys()


def test_cli_import_leaves_scipy_optimize_and_process_pool_unloaded():
    # a fresh interpreter: this test process may already hold both
    code = (
        "import sys, pageval.cli; "
        "print([m for m in ('scipy.optimize', 'concurrent.futures.process') "
        "if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(pageval.__path__[0])},
    )
    assert done.stdout.strip() == "[]"


def test_public_api_is_pinned():
    # adding or deleting a public name should be a deliberate, visible change
    assert sorted(pageval.__all__) == [
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
        "bwer",
        "distort_chars",
        "distort_corpus",
        "edit_distance",
        "evaluate_page",
        "hwer",
        "join_words",
        "nsfd",
        "predict_bwer_split_increase",
        "predict_nsfd_splits",
        "predict_nsfd_swaps",
        "predict_twer",
        "renumber",
        "reorder_hypothesis",
        "solve_assignment",
        "tcer",
        "tokenize_page",
    ]
