"""prooforge: structured-context proof search for Coq.

The package turns extracted proof-assistant entities into a semantic token
vocabulary, assembles dual-representation prompts under configurable context
levels, drives a planner/executor beam search against a proof backend, and
scores how clearly a model understands each concept it is shown.
"""

from .core_model import (
    ANONYMOUS_NAME as ANONYMOUS_NAME,
    EntityKind as EntityKind,
    EntityRecord as EntityRecord,
    GoalState as GoalState,
    Hypothesis as Hypothesis,
    InteractiveProof as InteractiveProof,
    Notebook as Notebook,
    ProofState as ProofState,
    SearchCandidate as SearchCandidate,
    TacticStep as TacticStep,
    state_fingerprint as state_fingerprint,
    validate_proof_chain as validate_proof_chain,
)
from .tokenizer import (
    DisambiguatedName as DisambiguatedName,
    TokenClass as TokenClass,
    TokenTable as TokenTable,
    coverage_report as coverage_report,
    load_vocabulary as load_vocabulary,
    resolve_name as resolve_name,
    save_vocabulary as save_vocabulary,
    tokenize_term as tokenize_term,
)
from .corpus import (
    EntityCorpus as EntityCorpus,
    ProofCorpus as ProofCorpus,
    extract_concepts as extract_concepts,
    load_entity_corpus as load_entity_corpus,
    load_proof_corpus as load_proof_corpus,
    save_entity_corpus as save_entity_corpus,
)
from .retrieval import (
    HttpEmbeddingProvider as HttpEmbeddingProvider,
    MockEmbeddingProvider as MockEmbeddingProvider,
    RetrievalIndex as RetrievalIndex,
    build_index as build_index,
    retrieve as retrieve,
)
from .prompt_builder import (
    CONFIG_MATRIX as CONFIG_MATRIX,
    ConfigTraits as ConfigTraits,
    InfoConfiguration as InfoConfiguration,
    PromptBundle as PromptBundle,
    expected_sections as expected_sections,
    render_prove_prompt as render_prove_prompt,
    render_state_context as render_state_context,
)
from .llm_gateway import (
    ChatRequest as ChatRequest,
    CompletionResult as CompletionResult,
    HttpGateway as HttpGateway,
    InfoRequest as InfoRequest,
    MockGateway as MockGateway,
    ScriptRecord as ScriptRecord,
    TacticSuggestions as TacticSuggestions,
    YesNoLogprobs as YesNoLogprobs,
    derive_yes_no_logprobs as derive_yes_no_logprobs,
    parse_action_response as parse_action_response,
    yes_no_logprobs as yes_no_logprobs,
)
from .coq_backend import (
    CompileResult as CompileResult,
    Lemma as Lemma,
    SubprocessBackend as SubprocessBackend,
    SyntheticBackend as SyntheticBackend,
    parse_sexp as parse_sexp,
    replay_trace as replay_trace,
)
from .proof_search import (
    Outcome as Outcome,
    ProofResult as ProofResult,
    RunRecorder as RunRecorder,
    SearchParams as SearchParams,
    SearchPorts as SearchPorts,
    SelectionMode as SelectionMode,
    compute_budget as compute_budget,
    prove as prove,
)
from .clarity_eval import (
    ClarityProbe as ClarityProbe,
    ConfigurationReport as ConfigurationReport,
    clarity_score as clarity_score,
    format_report_table as format_report_table,
    pearson_r as pearson_r,
    run_configuration as run_configuration,
    sample_probes as sample_probes,
)

__version__ = "0.1.0"
