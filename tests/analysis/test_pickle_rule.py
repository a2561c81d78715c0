"""Positive/negative fixtures for PKL010's payload call-site check."""

from repro.analysis import analyze_source


def rules_hit(source, relpath="repro/experiments/mod.py"):
    return [f.rule for f in analyze_source(source, relpath,
                                           select=["PKL010"])]


class TestPkl001UnpicklablePayloads:
    """PKL010's file-local check of the payload constructor call."""

    def test_lambda_in_runspec_flagged(self):
        source = (
            "def build(config):\n"
            "    return RunSpec(mode='offline',\n"
            "                   factory=lambda: object(),\n"
            "                   x=1.0, seed=0, config=config,\n"
            "                   num_requests=10)\n")
        assert rules_hit(source) == ["PKL010"]

    def test_local_function_in_runspec_flagged(self):
        source = (
            "def build(config):\n"
            "    def make():\n"
            "        return object()\n"
            "    return RunSpec(mode='offline', factory=make,\n"
            "                   x=1.0, seed=0, config=config,\n"
            "                   num_requests=10)\n")
        assert rules_hit(source) == ["PKL010"]

    def test_local_class_in_event_detail_flagged(self):
        source = (
            "def emit(slot):\n"
            "    class Payload:\n"
            "        pass\n"
            "    return Event(slot=slot, kind='admit',\n"
            "                 detail=Payload)\n")
        assert rules_hit(source) == ["PKL010"]

    def test_closure_reference_through_nested_scope_flagged(self):
        source = (
            "def outer(config):\n"
            "    def make():\n"
            "        return object()\n"
            "    def inner():\n"
            "        return RunSpec(mode='offline', factory=make,\n"
            "                       x=1.0, seed=0, config=config,\n"
            "                       num_requests=10)\n"
            "    return inner()\n")
        assert rules_hit(source) == ["PKL010"]

    def test_lambda_in_service_checkpoint_flagged(self):
        source = (
            "def snapshot(s):\n"
            "    return ServiceCheckpoint(config=lambda: 0, slot=s)\n")
        assert rules_hit(source) == ["PKL010"]

    def test_local_function_in_service_checkpoint_flagged(self):
        source = (
            "def snapshot(s):\n"
            "    def config():\n"
            "        return 0\n"
            "    return ServiceCheckpoint(config=config, slot=s)\n")
        assert rules_hit(source) == ["PKL010"]

    def test_lambda_bound_to_name_flagged(self):
        source = (
            "def snapshot(s):\n"
            "    cfg = lambda: 0\n"
            "    return ServiceCheckpoint(config=cfg, slot=s)\n")
        assert rules_hit(source) == ["PKL010"]

    def test_annotated_lambda_binding_flagged(self):
        source = (
            "def snapshot(s):\n"
            "    cfg: object = lambda: 0\n"
            "    return ServiceCheckpoint(config=cfg, slot=s)\n")
        assert rules_hit(source) == ["PKL010"]

    def test_name_bound_to_plain_value_ok(self):
        source = (
            "def snapshot(s, config):\n"
            "    cfg = config\n"
            "    return ServiceCheckpoint(config=cfg, slot=s)\n")
        assert rules_hit(source) == []

    def test_module_level_factory_ok(self):
        source = (
            "def make_algorithm():\n"
            "    return object()\n"
            "def build(config):\n"
            "    return RunSpec(mode='offline',\n"
            "                   factory=make_algorithm,\n"
            "                   x=1.0, seed=0, config=config,\n"
            "                   num_requests=10)\n")
        assert rules_hit(source) == []

    def test_lambda_outside_payload_calls_ok(self):
        source = (
            "def pick(records):\n"
            "    return sorted(records, key=lambda r: r.seed)\n")
        assert rules_hit(source) == []
