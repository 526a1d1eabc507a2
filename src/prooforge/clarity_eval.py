"""Context-clarity measurement.

A probe asks the model to reproduce the strict definition of one concept
from a rendered structured prompt alone; a temperature-0 judge then answers
YES/NO on semantic correctness, and the clarity score is the two-way softmax
of the YES/NO log probabilities. Scores aggregate per prompt configuration,
and the configuration means correlate against proof success rates with the
Pearson coefficient.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateSeries,
    ProviderError,
    UnjudgeableResponse,
)
from .llm_gateway import ChatRequest, YesNoLogprobs, yes_no_logprobs
from .prompt_builder import (
    InfoConfiguration,
    PromptBundle,
    render_clarity_judge,
    render_clarity_probe,
)

DEFAULT_PROBES_PER_BUNDLE = 3


def clarity_score(logprobs: YesNoLogprobs) -> float:
    """exp(log_p_yes) / (exp(log_p_yes) + exp(log_p_no)), computed stably."""
    if math.isinf(logprobs.log_p_yes):
        return 0.0
    if math.isinf(logprobs.log_p_no):
        return 1.0
    delta = logprobs.log_p_no - logprobs.log_p_yes
    if delta > 0:
        # exp(-delta) underflows to 0.0 for huge gaps instead of overflowing.
        z = math.exp(-delta)
        return z / (1.0 + z)
    return 1.0 / (1.0 + math.exp(delta))


@dataclass(frozen=True)
class ClarityProbe:
    """One judged probe; its `score` is the softmax of `logprobs`."""

    prompt_config: InfoConfiguration
    concept: int
    generated_definition: str
    logprobs: YesNoLogprobs

    @property
    def score(self) -> float:
        return clarity_score(self.logprobs)


@dataclass(frozen=True)
class ConfigurationReport:
    """Aggregate of one configuration's judged probes. `mean_score` is None
    exactly when no probe was judged; `excluded_count` counts unjudgeable
    probes left out of the mean; `incomplete` flags a run cut short by a
    port failure (with the message in `error`)."""

    config: InfoConfiguration
    excluded_count: int = 0
    probes: tuple[ClarityProbe, ...] = ()
    incomplete: bool = False
    error: str = ""

    @property
    def probe_count(self) -> int:
        return len(self.probes)

    @property
    def mean_score(self) -> Optional[float]:
        if not self.probes:
            return None
        return sum(p.score for p in self.probes) / len(self.probes)


def sample_probes(
    bundles: Sequence[PromptBundle],
    per_bundle: int = DEFAULT_PROBES_PER_BUNDLE,
    seed: int = 0,
) -> list[tuple[PromptBundle, int]]:
    """Draw up to `per_bundle` referenced concepts per bundle, uniformly
    without replacement, deterministically for a given seed."""
    if per_bundle < 1:
        raise ValueError("per_bundle must be positive")
    rng = random.Random(seed)
    picked: list[tuple[PromptBundle, int]] = []
    for bundle in bundles:
        population = list(bundle.concept_tokens)
        count = min(per_bundle, len(population))
        for token in rng.sample(population, count):
            picked.append((bundle, token))
    return picked


def run_configuration(
    config: InfoConfiguration,
    probes: Sequence[tuple[PromptBundle, int]],
    gateway,
    corpus,
    unjudgeable_half: bool = False,
) -> ConfigurationReport:
    """Generate and judge a definition for every (bundle, concept) probe.

    Unjudgeable probes are excluded from the mean (or scored 0.5 when
    `unjudgeable_half`). A gateway failure stops the run and returns the
    partial report flagged incomplete."""
    judged: list[ClarityProbe] = []
    excluded = 0
    incomplete = False
    error = ""
    for bundle, token in probes:
        record = corpus.record_for(token)
        if record is None:
            excluded += 1
            continue
        name = record.name
        try:
            reply = gateway.complete(ChatRequest("probe", render_clarity_probe(bundle, name)))
            judge_prompt = render_clarity_judge(name, reply.text, record)
            logprobs = yes_no_logprobs(gateway, judge_prompt)
        except UnjudgeableResponse:
            if unjudgeable_half:
                half = YesNoLogprobs(log_p_yes=math.log(0.5), log_p_no=math.log(0.5))
                judged.append(ClarityProbe(config, token, "", half))
            else:
                excluded += 1
            continue
        except ProviderError as exc:
            incomplete = True
            error = str(exc)
            break
        judged.append(ClarityProbe(config, token, reply.text, logprobs))
    return ConfigurationReport(
        config=config,
        excluded_count=excluded,
        probes=tuple(judged),
        incomplete=incomplete,
        error=error,
    )


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson product-moment correlation of two equal-length series."""
    if len(xs) != len(ys):
        raise ValueError("series must have equal length")
    if len(xs) < 2:
        raise ValueError("correlation needs at least two points")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt(float((dx * dx).sum()) * float((dy * dy).sum()))
    if denom == 0.0:
        raise DegenerateSeries("correlation is undefined for a constant series")
    r = float((dx * dy).sum()) / denom
    return max(-1.0, min(1.0, r))


_FAMILIES: tuple[tuple[str, tuple[InfoConfiguration, ...]], ...] = (
    ("Baselines", (
        InfoConfiguration.NO_CONTEXT,
        InfoConfiguration.QUALIFIED_NAME,
        InfoConfiguration.EMPTY_REFERENCE,
    )),
    ("Single sections", (
        InfoConfiguration.ORIGIN_ONLY,
        InfoConfiguration.INTERNAL_ONLY,
        InfoConfiguration.INTUITION_ONLY,
    )),
    ("Section pairs", (
        InfoConfiguration.ORIGIN_INTERNAL,
        InfoConfiguration.ORIGIN_INTUITION,
        InfoConfiguration.INTERNAL_INTUITION,
    )),
    ("Full context", (InfoConfiguration.COMPLETE,)),
    ("Translation", (InfoConfiguration.CHINESE_TRANSLATION,)),
)


def format_report_table(reports: Sequence[ConfigurationReport]) -> str:
    """Human-readable clarity table grouped by configuration family."""
    by_config = {report.config: report for report in reports}
    lines = [
        f"{'Configuration':<22} {'Probes':>6} {'Excluded':>8} {'Mean clarity':>12}",
        "-" * 52,
    ]
    for family, configs in _FAMILIES:
        members = [by_config[c] for c in configs if c in by_config]
        if not members:
            continue
        lines.append(f"[{family}]")
        for report in members:
            mean = "-" if report.mean_score is None else f"{report.mean_score:.4f}"
            flag = " (incomplete)" if report.incomplete else ""
            lines.append(
                f"{report.config.value:<22} {report.probe_count:>6} "
                f"{report.excluded_count:>8} {mean:>12}{flag}"
            )
    return "\n".join(lines) + "\n"


def format_report_rows(reports: Sequence[ConfigurationReport]) -> str:
    """Machine-readable rows: config, probe_count, mean, excluded_count."""
    lines = ["config\tprobe_count\tmean\texcluded_count"]
    for report in reports:
        mean = "" if report.mean_score is None else f"{report.mean_score:.6f}"
        lines.append(
            f"{report.config.value}\t{report.probe_count}\t{mean}\t{report.excluded_count}"
        )
    return "\n".join(lines) + "\n"


def parse_report_rows(text: str) -> dict[str, tuple[int, Optional[float], int]]:
    """Inverse of format_report_rows: config -> (probe_count, mean, excluded)."""
    out: dict[str, tuple[int, Optional[float], int]] = {}
    lines = [line for line in text.splitlines() if line.strip()]
    for line in lines[1:]:
        config, count, mean, excluded = line.split("\t")
        out[config] = (int(count), float(mean) if mean else None, int(excluded))
    return out
