"""Public-API consistency: every ``__all__`` name exists and is importable,
and every serving entry point speaks the one client surface
(``submit(...) -> PendingRecommendation`` / ``handle.result(timeout)``)."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.tensor",
    "repro.text",
    "repro.data",
    "repro.llm",
    "repro.quantization",
    "repro.core",
    "repro.baselines",
    "repro.eval",
    "repro.analysis",
    "repro.bench",
    "repro.serving",
    "repro.utils",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    module = importlib.import_module(package_name)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), f"{package_name}.__all__ lists {name}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_has_docstring(package_name):
    module = importlib.import_module(package_name)
    assert module.__doc__, f"{package_name} lacks a module docstring"


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(part.isdigit() for part in parts)


def test_public_classes_documented():
    """Spot-check: core public classes carry docstrings."""
    from repro.core import LCRec, ChatSession
    from repro.quantization import RQVAE, ItemIndexSet
    from repro.llm import TinyLlama
    from repro.baselines import SASRec, TIGER

    for cls in (LCRec, ChatSession, RQVAE, ItemIndexSet, TinyLlama, SASRec,
                TIGER):
        assert cls.__doc__ and len(cls.__doc__) > 10


class TestUnifiedClientSurface:
    """One client API across all serving modes — the PR-6 contract.

    Single-process or cluster, sync or background, callers program
    against ``RecommendationClient``: the same ``submit*`` signatures,
    the same handle semantics, the same lifecycle verbs.
    """

    def clients(self):
        from repro.serving import RecommendationService, ServingCluster

        return [RecommendationService, ServingCluster]

    def test_every_client_subclasses_the_abc(self):
        from repro.serving import RecommendationClient

        for cls in self.clients():
            assert issubclass(cls, RecommendationClient)

    def test_submit_signatures_are_aligned(self):
        """Each submit verb exposes the same caller-facing parameters."""
        for method in ("submit", "submit_intention", "submit_instruction"):
            signatures = [
                inspect.signature(getattr(cls, method)) for cls in self.clients()
            ]
            names = [list(sig.parameters) for sig in signatures]
            assert names[0] == names[1], f"{method} diverges: {names}"
            for sig in signatures:
                assert sig.parameters["session_key"].kind is inspect.Parameter.KEYWORD_ONLY
                assert sig.parameters["deadline_ms"].kind is inspect.Parameter.KEYWORD_ONLY

    def test_lifecycle_verbs_exist_everywhere(self):
        for cls in self.clients():
            for verb in ("start", "stop", "flush", "is_running", "__enter__", "__exit__",
                         "recommend_many"):
                assert hasattr(cls, verb), f"{cls.__name__} lacks {verb}"

    def test_every_submit_verb_returns_the_one_handle(self):
        """Both clients annotate every submit verb with the one handle class."""
        import typing

        from repro.serving import PendingRecommendation, RecommendationClient

        for cls in (RecommendationClient, *self.clients()):
            for method in ("submit", "submit_intention", "submit_instruction"):
                hints = typing.get_type_hints(getattr(cls, method))
                assert hints["return"] is PendingRecommendation, (cls.__name__, method)

    def test_handle_born_settled_draws_a_real_request_id(self):
        from repro.serving import PendingRecommendation, RecommendRequest

        before = RecommendRequest(prompt_ids=[1]).request_id
        handle = PendingRecommendation()
        after = RecommendRequest(prompt_ids=[1]).request_id
        assert before < handle.request_id < after
        assert not handle.done and not handle.degraded and handle.degraded_reason is None
        handle._deliver([4, 2], degraded_reason="deadline")
        assert handle.done and handle.degraded and handle.degraded_reason == "deadline"
        assert handle.result() == [4, 2]

    def test_overloaded_reasons_are_closed_set(self):
        from repro.serving import Overloaded

        assert Overloaded("x").reason == "queue_full"
        assert Overloaded("x", reason="deadline").reason == "deadline"
        assert issubclass(Overloaded, RuntimeError)

    def test_client_abc_rejects_partial_implementations(self):
        from repro.serving import RecommendationClient

        class Partial(RecommendationClient):
            pass

        with pytest.raises(TypeError):
            Partial()
