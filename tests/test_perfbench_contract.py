"""The benchmark under perfbench/ traces the program from outside by
wrapping names it looks up at run time. This checks those names here, so a
rename fails this suite and not only the benchmark's own, slower tests."""

import importlib.util
from pathlib import Path

from prooforge import proof_search
from prooforge.coq_backend import SyntheticBackend
from prooforge.llm_gateway import MockGateway
from prooforge.retrieval import MockEmbeddingProvider

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_name_the_benchmark_wraps_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # Raises SystemExit naming every missing attribute.
    tracing.check_wrappable(proof_search, SyntheticBackend, MockGateway, MockEmbeddingProvider)
