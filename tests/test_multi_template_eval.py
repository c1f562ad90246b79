"""Tests for the multi-template evaluation protocol (paper Table III note)."""

import pytest
from helpers import evaluate_recommender, evaluate_recommender_multi_template

from repro.bench.config import BenchScale

FAST = BenchScale("test", dataset_scale=1.0, epoch_scale=1.0,
                  max_eval_users=12)


class TestMultiTemplateEvaluation:
    def test_average_of_single_template_reports(self, tiny_lcrec,
                                                tiny_dataset):
        merged = evaluate_recommender_multi_template(
            tiny_lcrec, tiny_dataset, FAST, template_ids=(0, 1))
        first = evaluate_recommender(tiny_lcrec, tiny_dataset, FAST,
                                     template_id=0)
        second = evaluate_recommender(tiny_lcrec, tiny_dataset, FAST,
                                      template_id=1)
        for key in merged.values:
            expected = (first[key] + second[key]) / 2
            assert merged[key] == pytest.approx(expected)

    def test_single_template_is_identity(self, tiny_lcrec, tiny_dataset):
        merged = evaluate_recommender_multi_template(
            tiny_lcrec, tiny_dataset, FAST, template_ids=(0,))
        single = evaluate_recommender(tiny_lcrec, tiny_dataset, FAST,
                                      template_id=0)
        assert merged.values == single.values

    def test_empty_templates_rejected(self, tiny_lcrec, tiny_dataset):
        with pytest.raises(ValueError):
            evaluate_recommender_multi_template(tiny_lcrec, tiny_dataset,
                                                FAST, template_ids=())

    def test_all_seq_templates_usable(self, tiny_lcrec, tiny_dataset):
        from repro.core import templates as T

        history = tiny_dataset.split.test_histories[0]
        for template_id in range(len(T.SEQ_TEMPLATES)):
            instruction = T.seq_instruction(tiny_lcrec.index_set, history, 6, template_id)
            assert "{" not in instruction
