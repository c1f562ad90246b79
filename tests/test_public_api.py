"""Public-API consistency: every ``__all__`` name exists and is importable,
and every serving entry point speaks the one client surface
(``submit(...) -> RecommendationHandle`` / ``handle.result(timeout)``)."""

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

    def test_handle_protocol_is_runtime_checkable(self):
        from repro.serving import (
            Overloaded,
            RecommendationHandle,
            RejectedRecommendation,
        )

        handle = RejectedRecommendation(Overloaded("saturated"))
        assert isinstance(handle, RecommendationHandle)
        assert handle.done
        with pytest.raises(Overloaded) as err:
            handle.result(timeout=0.0)
        assert err.value.reason == "queue_full"

    def test_every_handle_kind_exposes_degraded_reason(self):
        from repro.serving import (
            DegradedRecommendation,
            Overloaded,
            PendingRecommendation,
            RecommendationHandle,
            RejectedRecommendation,
        )

        pending = PendingRecommendation(None, request_id=1)
        handles = [
            pending,
            RejectedRecommendation(Overloaded("saturated")),
            DegradedRecommendation([4, 2], "cold_start"),
        ]
        assert all(isinstance(handle, RecommendationHandle) for handle in handles)
        assert [handle.degraded_reason for handle in handles] == [None, None, "cold_start"]
        pending._deliver([4, 2], degraded_reason="deadline")
        assert pending.degraded and pending.degraded_reason == "deadline"

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
