"""Unit tests for AR task pipelines."""

import pickle

import pytest

from repro.exceptions import ConfigurationError
from repro.requests.tasks import (ARTask, STANDARD_STAGES, TaskPipeline,
                                  standard_ar_pipeline)


class TestARTask:
    def test_output_mb(self):
        task = ARTask(name="t", output_kb=64.0)
        assert task.output_mb == pytest.approx(0.064)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ARTask(name="", output_kb=1.0)
        with pytest.raises(ConfigurationError):
            ARTask(name="t", output_kb=0.0)
        with pytest.raises(ConfigurationError):
            ARTask(name="t", output_kb=1.0, compute_weight=0.0)


class TestStandardStages:
    """The four-stage pipeline of Braud et al. [5]."""

    def test_stage_names_and_sizes(self):
        names = [t.name for t in STANDARD_STAGES]
        assert names == ["render_object", "track_objects",
                         "update_world_model", "recognize_objects"]
        sizes = [t.output_kb for t in STANDARD_STAGES]
        assert sizes == [100.0, 64.0, 64.0, 64.0]

    def test_render_is_heaviest(self):
        weights = [t.compute_weight for t in STANDARD_STAGES]
        assert weights[0] == max(weights)


class TestTaskPipeline:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskPipeline([])

    def test_len_iter_getitem(self):
        pipeline = standard_ar_pipeline(4)
        assert len(pipeline) == 4
        assert list(pipeline)[0].name == "render_object"
        assert pipeline[1].name == "track_objects"

    def test_total_compute_weight(self):
        pipeline = standard_ar_pipeline(4)
        assert pipeline.total_compute_weight == pytest.approx(5.0)

    def test_total_output_mb(self):
        pipeline = standard_ar_pipeline(4)
        assert pipeline.total_output_mb == pytest.approx(0.292)

    def test_heaviest_index_is_render(self):
        assert standard_ar_pipeline(4).heaviest_index() == 0

    def test_heaviest_ties_break_earliest(self):
        pipeline = TaskPipeline([
            ARTask("a", 1.0, compute_weight=1.0),
            ARTask("b", 1.0, compute_weight=1.0),
        ])
        assert pipeline.heaviest_index() == 0

    def test_split(self):
        pipeline = standard_ar_pipeline(4)
        head, tail = pipeline.split(1)
        assert len(head) == 1 and len(tail) == 3
        assert head[0].name == "render_object"
        assert (head.total_compute_weight + tail.total_compute_weight
                == pytest.approx(pipeline.total_compute_weight))

    def test_split_bounds(self):
        pipeline = standard_ar_pipeline(3)
        with pytest.raises(ConfigurationError):
            pipeline.split(0)
        with pytest.raises(ConfigurationError):
            pipeline.split(3)


class TestStandardPipelineFactory:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_lengths(self, n):
        assert len(standard_ar_pipeline(n)) == n

    def test_extension_stages_named(self):
        pipeline = standard_ar_pipeline(6)
        assert pipeline[4].name == "refine_stage_1"
        assert pipeline[5].name == "refine_stage_2"

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError):
            standard_ar_pipeline(0)
        with pytest.raises(ConfigurationError):
            standard_ar_pipeline(9)

    def test_pickle_keeps_total_weight(self):
        pipeline = standard_ar_pipeline(6)
        copy = pickle.loads(pickle.dumps(pipeline))
        assert copy.tasks == pipeline.tasks
        assert copy.total_compute_weight == pipeline.total_compute_weight

    def test_stages_only_state_derives_total_weight(self):
        """A pickle that stored only the stages still loads whole."""
        restored = TaskPipeline.__new__(TaskPipeline)
        restored.__setstate__({"_tasks": STANDARD_STAGES})
        assert restored.total_compute_weight == 5.0
