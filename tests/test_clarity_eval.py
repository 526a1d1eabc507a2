"""Clarity scoring: the two-way softmax, probe sampling, configuration
aggregation with a scripted judge, the Pearson correlation, and the report
round-trip."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import sigma_0
from test_proof_search import info_corpus
from prooforge.clarity_eval import (
    ClarityProbe,
    ConfigurationReport,
    clarity_score,
    format_report_rows,
    format_report_table,
    parse_report_rows,
    pearson_r,
    run_configuration,
    sample_probes,
)
from prooforge.errors import DegenerateSeries
from prooforge.llm_gateway import MockGateway, ScriptRecord, YesNoLogprobs
from prooforge.prompt_builder import (
    InfoConfiguration,
    render_prove_prompt,
    render_state_context,
)

from conftest import make_entity

finite_logprobs = st.floats(min_value=-50.0, max_value=0.0)


def softmax_oracle(lpy: float, lpn: float) -> float:
    # Direct two-way softmax with max-shift, the textbook evaluation.
    m = max(lpy, lpn)
    py = math.exp(lpy - m)
    pn = math.exp(lpn - m)
    return py / (py + pn)


def probe_for(config: InfoConfiguration, score: float) -> ClarityProbe:
    pair = YesNoLogprobs(log_p_yes=math.log(score), log_p_no=math.log(1 - score))
    return ClarityProbe(config, 1, "a definition", pair)


# ----------------------------------------------------------------------
# The score formula
# ----------------------------------------------------------------------

class TestClarityScore:
    def test_equal_logprobs_give_half(self):
        # [PAPER] p_yes == p_no -> 0.5 exactly.
        assert clarity_score(YesNoLogprobs(-0.5, -0.5)) == 0.5

    def test_one_nat_gap(self):
        # [PAPER] a gap of one nat: 1 / (1 + e^-1).
        score = clarity_score(YesNoLogprobs(-0.3, -1.3))
        assert abs(score - 0.7310585786300049) < 1e-12

    def test_twenty_nat_gap(self):
        # [PAPER] a confident judge against the -20 floor.
        score = clarity_score(YesNoLogprobs(0.0, -20.0))
        assert abs(score - 0.9999999979388463) < 1e-12

    def test_infinite_sentinels(self):
        assert clarity_score(YesNoLogprobs(-math.inf, -0.1)) == 0.0
        assert clarity_score(YesNoLogprobs(-0.1, -math.inf)) == 1.0

    def test_extreme_gaps_stay_finite(self):
        assert clarity_score(YesNoLogprobs(-1e6, 0.0)) == 0.0
        assert clarity_score(YesNoLogprobs(0.0, -1e6)) == 1.0

    @given(finite_logprobs, finite_logprobs)
    def test_matches_direct_softmax(self, lpy, lpn):
        score = clarity_score(YesNoLogprobs(lpy, lpn))
        assert abs(score - softmax_oracle(lpy, lpn)) < 1e-12

    @given(finite_logprobs, finite_logprobs)
    def test_complementarity(self, lpy, lpn):
        forward = clarity_score(YesNoLogprobs(lpy, lpn))
        backward = clarity_score(YesNoLogprobs(lpn, lpy))
        assert abs(forward + backward - 1.0) < 1e-9

    @given(finite_logprobs, finite_logprobs, finite_logprobs)
    def test_monotone_in_the_yes_logprob(self, a, b, lpn):
        low, high = sorted((a, b))
        assert clarity_score(YesNoLogprobs(low, lpn)) <= clarity_score(
            YesNoLogprobs(high, lpn)
        )


class TestClarityProbe:
    def test_score_is_the_softmax_of_the_logprobs(self):
        probe = probe_for(InfoConfiguration.COMPLETE, 0.4)
        assert abs(probe.score - 0.4) < 1e-12
        assert probe.score == clarity_score(probe.logprobs)


# ----------------------------------------------------------------------
# Probe sampling
# ----------------------------------------------------------------------

def bundle_with_concepts(count: int, base: int = 100):
    pairs = [
        (base + i, make_entity(f"Lib.Mod.c{i}", origin=f"Definition c{i}.", internal=f"c{i}"))
        for i in range(count)
    ]
    return render_prove_prompt(render_state_context(sigma_0(), pairs))


class TestSampleProbes:
    def test_small_population_is_taken_whole(self):
        # [PAPER] two referenced concepts, three draws: both are probed.
        bundle = bundle_with_concepts(2)
        picked = sample_probes([bundle], per_bundle=3, seed=0)
        assert {token for _b, token in picked} == {100, 101}

    def test_large_population_draws_without_replacement(self):
        bundle = bundle_with_concepts(10)
        picked = sample_probes([bundle], per_bundle=3, seed=0)
        tokens = [token for _b, token in picked]
        assert len(tokens) == 3
        assert len(set(tokens)) == 3
        assert set(tokens) <= set(bundle.concept_tokens)

    def test_deterministic_for_a_seed(self):
        bundles = [bundle_with_concepts(10), bundle_with_concepts(10, base=200)]
        first = sample_probes(bundles, per_bundle=3, seed=7)
        second = sample_probes(bundles, per_bundle=3, seed=7)
        assert [t for _b, t in first] == [t for _b, t in second]

    def test_bundles_keep_their_groups(self):
        first = bundle_with_concepts(5)
        second = bundle_with_concepts(5, base=200)
        picked = sample_probes([first, second], per_bundle=2, seed=3)
        assert [b is first for b, _t in picked] == [True, True, False, False]

    def test_per_bundle_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_probes([], per_bundle=0)


# ----------------------------------------------------------------------
# Configuration runs against a scripted judge
# ----------------------------------------------------------------------

def judge_records(*scores: float) -> list[ScriptRecord]:
    records = []
    for score in scores:
        records.append(ScriptRecord(reply="Definition text.", route="probe"))
        records.append(
            ScriptRecord(
                yes_no=(math.log(score), math.log(1 - score)), route="judge"
            )
        )
    return records


class TestRunConfiguration:
    def probes(self, tmp_path, count: int):
        corpus, _table = info_corpus(tmp_path)
        token = corpus.tokens[0]
        bundle = render_prove_prompt(
            render_state_context(sigma_0(), [(token, corpus.records[0])])
        )
        return corpus, [(bundle, token)] * count

    def test_mean_of_scripted_scores(self, tmp_path):
        # [DERIVED] four probes at 0.4, 0.4, 0.5, 0.48 average to 0.445.
        corpus, probes = self.probes(tmp_path, 4)
        gateway = MockGateway(judge_records(0.4, 0.4, 0.5, 0.48))
        report = run_configuration(
            InfoConfiguration.NO_CONTEXT, probes, gateway, corpus
        )
        assert report.probe_count == 4
        assert report.excluded_count == 0
        assert not report.incomplete
        assert abs(report.mean_score - 0.445) < 1e-9
        assert all(p.prompt_config is InfoConfiguration.NO_CONTEXT for p in report.probes)

    def test_zero_probes_has_undefined_mean(self, tmp_path):
        corpus, _ = self.probes(tmp_path, 0)
        report = run_configuration(
            InfoConfiguration.COMPLETE, [], MockGateway(), corpus
        )
        assert report.probe_count == 0
        assert report.mean_score is None

    def test_unjudgeable_probes_are_excluded(self, tmp_path):
        corpus, probes = self.probes(tmp_path, 2)
        records = [
            ScriptRecord(reply="Definition text.", route="probe", default=True),
            # A judge record with no logprob data is unjudgeable.
            ScriptRecord(reply="yes", route="judge", default=True),
        ]
        report = run_configuration(
            InfoConfiguration.COMPLETE, probes, MockGateway(records), corpus
        )
        assert report.probe_count == 0
        assert report.mean_score is None
        assert report.excluded_count == 2

    def test_unjudgeable_half_scores_half(self, tmp_path):
        corpus, probes = self.probes(tmp_path, 2)
        records = [
            ScriptRecord(reply="Definition text.", route="probe", default=True),
            ScriptRecord(reply="yes", route="judge", default=True),
        ]
        report = run_configuration(
            InfoConfiguration.COMPLETE,
            probes,
            MockGateway(records),
            corpus,
            unjudgeable_half=True,
        )
        assert report.probe_count == 2
        assert report.excluded_count == 0
        assert report.mean_score == 0.5

    def test_provider_failure_returns_partial_report(self, tmp_path):
        corpus, probes = self.probes(tmp_path, 3)
        gateway = MockGateway(judge_records(0.4, 0.6))  # third probe exhausts
        report = run_configuration(
            InfoConfiguration.COMPLETE, probes, gateway, corpus
        )
        assert report.incomplete
        assert "script exhausted" in report.error
        assert report.probe_count == 2
        assert abs(report.mean_score - 0.5) < 1e-9

    def test_unknown_concept_is_excluded_without_a_call(self, tmp_path):
        corpus, probes = self.probes(tmp_path, 1)
        bundle = probes[0][0]
        gateway = MockGateway()
        report = run_configuration(
            InfoConfiguration.COMPLETE, [(bundle, 999999)], gateway, corpus
        )
        assert report.excluded_count == 1
        assert gateway.calls == []


class TestReportAggregates:
    def test_count_and_mean_follow_the_probes(self):
        empty = ConfigurationReport(config=InfoConfiguration.COMPLETE, excluded_count=2)
        assert (empty.probe_count, empty.mean_score) == (0, None)
        probes = tuple(probe_for(InfoConfiguration.COMPLETE, p) for p in (0.2, 0.4, 0.9))
        report = ConfigurationReport(config=InfoConfiguration.COMPLETE, probes=probes)
        assert report.probe_count == 3
        assert report.mean_score == sum(p.score for p in probes) / 3
        assert abs(report.mean_score - 0.5) < 1e-12


# ----------------------------------------------------------------------
# Pearson correlation
# ----------------------------------------------------------------------

class TestPearson:
    def test_clarity_success_correlation(self):
        # [PAPER] the five configuration (clarity, success-rate) pairs.
        clarity = (0.445, 0.581, 0.712, 0.798, 0.823)
        success = (21.0, 25.0, 38.0, 42.0, 45.0)
        r = pearson_r(clarity, success)
        assert abs(r - 0.98) <= 0.01

    def test_perfect_linear(self):
        xs = (0.1, 0.4, 0.6, 0.9)
        assert pearson_r(xs, tuple(2 * x + 1 for x in xs)) == 1.0

    def test_perfect_anticorrelation(self):
        xs = (0.1, 0.4, 0.6, 0.9)
        assert pearson_r(xs, tuple(-x for x in xs)) == -1.0

    def test_affine_invariance(self):
        xs = (1.0, 2.0, 3.0, 4.0)
        ys = (2.0, 5.0, 3.0, 8.0)
        base = pearson_r(xs, ys)
        assert pearson_r(tuple(3 * x + 2 for x in xs), ys) == pytest.approx(base)
        assert pearson_r(tuple(-2 * x + 1 for x in xs), ys) == pytest.approx(-base)

    def test_constant_series_is_degenerate(self):
        with pytest.raises(DegenerateSeries):
            pearson_r((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            pearson_r((1.0, 2.0), (1.0,))
        with pytest.raises(ValueError):
            pearson_r((1.0,), (2.0,))

    def test_always_within_unit_interval(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(2, 8)
            xs = [rng.uniform(-10, 10) for _ in range(n)]
            ys = [rng.uniform(-10, 10) for _ in range(n)]
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            assert -1.0 <= pearson_r(xs, ys) <= 1.0


# ----------------------------------------------------------------------
# Report formatting
# ----------------------------------------------------------------------

def sample_reports():
    no_context = ConfigurationReport(
        config=InfoConfiguration.NO_CONTEXT,
        probes=(
            probe_for(InfoConfiguration.NO_CONTEXT, 0.4),
            probe_for(InfoConfiguration.NO_CONTEXT, 0.5),
        ),
        excluded_count=1,
    )
    complete = ConfigurationReport(
        config=InfoConfiguration.COMPLETE,
        excluded_count=3,
        incomplete=True,
        error="timeout",
    )
    return [no_context, complete]


class TestReportFormats:
    def test_table_layout(self):
        table = format_report_table(sample_reports())
        assert "[Baselines]" in table
        assert "[Full context]" in table
        assert "NoContext" in table
        assert "0.4500" in table
        assert "(incomplete)" in table
        lines = table.splitlines()
        assert lines[0].startswith("Configuration")
        # The undefined mean renders as a dash.
        complete_row = next(line for line in lines if line.startswith("Complete"))
        assert complete_row.rstrip().endswith("- (incomplete)")

    def test_rows_round_trip(self):
        rows = format_report_rows(sample_reports())
        parsed = parse_report_rows(rows)
        assert parsed["NoContext"][0] == 2
        assert parsed["NoContext"][1] == pytest.approx(0.45, abs=1e-6)
        assert parsed["NoContext"][2] == 1
        assert parsed["Complete"] == (0, None, 3)
