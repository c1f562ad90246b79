"""LC-Rec: end-to-end orchestration of indexing, tuning and inference.

The :class:`LCRec` model reproduces the paper's pipeline:

1. Build a tokenizer/vocabulary over the item corpus and pretrain the tiny
   LLaMA so token embeddings carry language semantics (substitute for the
   pretrained LLaMA-7B checkpoint).
2. Encode each item's title+description, train the RQ-VAE with uniform
   semantic mapping, and obtain unique 4-level item indices.
3. Register index tokens as OOV vocabulary and extend the LM's embedding
   table and output head.
4. Instruction-tune on the alignment-task mixture (SEQ/MUT/ASY/ITE/PER).
5. Recommend by trie-constrained beam search over the entire item set.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..data import IntentionGenerator, SequentialDataset
from ..data.intentions import intention_template_texts
from ..llm import (
    InstructionTuner,
    LMConfig,
    PretrainConfig,
    TinyLlama,
    TuningConfig,
    encode_texts,
    greedy_generate,
    pretrain_lm,
    sequence_logprob,
)
from ..llm.instruction import prompt_ids
from ..quantization import IndexTrie, ItemIndexSet, RQVAE
from ..serving.queue import check_template_id
from ..text import WordTokenizer
from ..utils.logging import get_logger
from ..utils.rng import SeedSequenceFactory
from . import templates as T
from .indexer import (
    SemanticIndexerConfig,
    build_random_index_set,
    build_semantic_index_set,
    build_vanilla_index_set,
)
from .tasks import AlignmentTaskBuilder, AlignmentTaskConfig

__all__ = ["LCRecConfig", "LCRec"]

logger = get_logger(__name__)


@dataclass
class LCRecConfig:
    """Every knob of the LC-Rec pipeline."""

    lm: LMConfig = field(default_factory=LMConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    indexer: SemanticIndexerConfig = field(default_factory=SemanticIndexerConfig)
    tasks: AlignmentTaskConfig = field(default_factory=AlignmentTaskConfig)
    tuning: TuningConfig = field(default_factory=TuningConfig)
    index_source: str = "semantic"  # semantic | vanilla | random
    beam_size: int = 20
    seed: int = 0

    def validate(self) -> None:
        if self.index_source not in ("semantic", "vanilla", "random"):
            raise ValueError(f"unknown index_source {self.index_source!r}")
        self.tasks.validate()


class LCRec:
    """The LC-Rec recommender.

    Typical use::

        model = LCRec(dataset, LCRecConfig())
        model.build()
        items = model.recommend(history, top_k=10)
    """

    def __init__(self, dataset: SequentialDataset, config: LCRecConfig):
        config.validate()
        self.dataset = dataset
        # A private copy: the build writes the LM's vocabulary size and seed into it.
        self.config = copy.deepcopy(config)
        self._seeds = SeedSequenceFactory(config.seed)
        # Populated by build():
        self.tokenizer: WordTokenizer | None = None
        self.lm: TinyLlama | None = None
        self.index_set: ItemIndexSet | None = None
        self.trie: IndexTrie | None = None
        self.rqvae: RQVAE | None = None
        self.item_embeddings: np.ndarray | None = None
        self.intention_generator: IntentionGenerator | None = None
        self.task_builder: AlignmentTaskBuilder | None = None
        self.tuning_losses: list[float] = []
        self.pretrain_losses: list[float] = []
        self._pretrained_state: dict[str, np.ndarray] | None = None
        self._pretrained_config: LMConfig | None = None

    @classmethod
    def from_pretrained(cls, pretrained: "LCRec", config: LCRecConfig) -> "LCRec":
        """An unbuilt model starting from copies of ``pretrained``'s vocabulary and LM.

        ``pretrained`` has run :meth:`build_vocabulary` and
        :meth:`build_language_model` and nothing after them.  ``config``
        must pretrain the same LM (equal ``lm``, ``pretrain`` and ``seed``);
        its other stages may differ.  :meth:`build` then starts at indexing
        and trains the weights a build from scratch would, so variants that
        differ only after pretraining share one pretraining.
        """
        if pretrained.lm is None or pretrained.index_set is not None:
            raise ValueError("pretrained must have run build_language_model() and nothing after")
        model = cls(pretrained.dataset, config)
        config = model.config
        # What build_language_model writes into the config.
        config.lm.vocab_size = pretrained.config.lm.vocab_size
        config.lm.seed = pretrained.config.lm.seed
        mine = (config.lm, config.pretrain, config.seed)
        theirs = (pretrained.config.lm, pretrained.config.pretrain, pretrained.config.seed)
        if mine != theirs:
            raise ValueError("config pretrains a different LM than pretrained's")
        model.tokenizer = copy.deepcopy(pretrained.tokenizer)
        model.lm = copy.deepcopy(pretrained.lm)
        model.pretrain_losses = list(pretrained.pretrain_losses)
        model._pretrained_state = pretrained._pretrained_state
        model._pretrained_config = pretrained._pretrained_config
        return model

    # ------------------------------------------------------------------
    # Build stages
    # ------------------------------------------------------------------
    def build_vocabulary(self) -> None:
        corpus = self.dataset.catalog.texts()
        corpus += T.all_template_texts()
        corpus += intention_template_texts()
        corpus += ["answer :"]
        vocab = WordTokenizer.build_vocab(corpus)
        self.tokenizer = WordTokenizer(vocab)

    def build_language_model(self) -> None:
        lm_config = self.config.lm
        lm_config.vocab_size = len(self.tokenizer.vocab)
        lm_config.seed = self._seeds.child_seed("lm") % (2**31)
        self.lm = TinyLlama(lm_config)
        corpus = self.dataset.catalog.texts()
        self.pretrain_losses = pretrain_lm(self.lm, self.tokenizer, corpus, self.config.pretrain)
        # Snapshot the language-only model: the Table V "LLaMA" comparator
        # (an LLM that has seen the item texts but no collaborative signal).
        self._pretrained_state = self.lm.state_dict()
        self._pretrained_config = dataclasses.replace(lm_config)

    def build_item_embeddings(self) -> None:
        self.item_embeddings = encode_texts(
            self.lm, self.tokenizer, self.dataset.catalog.texts()
        )

    def build_indices(self) -> None:
        source = self.config.index_source
        num_items = len(self.dataset.catalog)
        if source == "semantic":
            self.build_item_embeddings()
            self.index_set, self.rqvae, _ = build_semantic_index_set(
                self.item_embeddings, self.config.indexer
            )
        elif source == "vanilla":
            self.index_set = build_vanilla_index_set(num_items)
        else:  # random
            rq = self.config.indexer.rqvae
            self.index_set = build_random_index_set(
                num_items, rq.num_levels, rq.codebook_size,
                self._seeds.rng("random-indices"),
            )
        self.index_set.register(self.tokenizer)
        extra = len(self.tokenizer.vocab) - self.lm.vocab_size
        self.lm.extend_vocab(extra, rng=self._seeds.rng("vocab-extend"))
        self.trie = self.index_set.build_trie(self.tokenizer)

    def build_task_builder(self) -> None:
        self.intention_generator = IntentionGenerator(
            self.dataset.catalog, self._seeds.rng("intentions")
        )
        self.task_builder = AlignmentTaskBuilder(
            dataset=self.dataset,
            index_set=self.index_set,
            intention_generator=self.intention_generator,
            config=self.config.tasks,
        )

    def tune(self) -> None:
        tuner = InstructionTuner(self.lm, self.tokenizer, self.config.tuning)
        self.tuning_losses = tuner.tune(self.task_builder.epoch_examples)

    def build(self) -> "LCRec":
        """Run the full pipeline; returns self for chaining.

        A model from :meth:`from_pretrained` has its vocabulary and LM
        already and starts at indexing.
        """
        if self.lm is None or self.index_set is not None:
            logger.info("LC-Rec build on %s: vocabulary", self.dataset.name)
            self.build_vocabulary()
            logger.info("LC-Rec build: LM pretraining")
            self.build_language_model()
        logger.info("LC-Rec build: indexing (%s)", self.config.index_source)
        self.build_indices()
        self.build_task_builder()
        logger.info("LC-Rec build: alignment tuning")
        self.tune()
        return self

    def _require_built(self) -> None:
        if self.lm is None or self.trie is None:
            raise RuntimeError("call build() before inference")

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def seq_instruction(self, history: list[int], template_id: int = 0) -> str:
        """Render a sequential-prediction instruction for ``history``."""
        check_template_id(template_id, len(T.SEQ_TEMPLATES))
        history = history[-self.config.tasks.max_history:]
        history_text = " , ".join(self.index_set.index_text(i) for i in history)
        return T.SEQ_TEMPLATES[template_id].format(history=history_text)

    def encode_instruction(self, instruction: str) -> list[int]:
        """Inference-side prompt token ids for a rendered instruction."""
        self._require_built()
        return prompt_ids(self.tokenizer, instruction, max_len=self.config.tuning.max_len)

    def recommend(self, history: list[int], top_k: int = 10, template_id: int = 0) -> list[int]:
        """Full-ranking next-item recommendation via constrained beam search."""
        self._require_built()
        instruction = self.seq_instruction(history, template_id)
        return self.recommend_from_instruction(instruction, top_k=top_k)

    def recommend_many(
        self, histories: Sequence[Sequence[int]], top_k: int = 10, template_id: int = 0
    ) -> list[list[int]]:
        """Batched :meth:`recommend`: all histories decoded together."""
        self._require_built()
        instructions = [self.seq_instruction(list(h), template_id) for h in histories]
        return self.recommend_many_from_instructions(instructions, top_k=top_k)

    def recommend_from_instruction(self, instruction: str, top_k: int = 10) -> list[int]:
        """Generate item recommendations for an arbitrary instruction."""
        return self.recommend_many_from_instructions([instruction], top_k=top_k)[0]

    def recommend_many_from_instructions(
        self, instructions: Sequence[str], top_k: int = 10
    ) -> list[list[int]]:
        """Batched constrained decoding of arbitrary instructions.

        All prompts run through the :class:`repro.serving.LCRecEngine`
        adapter in one ``B`` × ``K``-beam decode; rankings match
        per-request decoding.
        """
        self._require_built()
        prompts = [self.encode_instruction(i) for i in instructions]
        # A cache-less engine over the current lm and trie: the oracle decode
        # path (no prefix cache, no scheduling) the serving parity suites
        # compare against.  Building one only stores references.
        return self.engine(prefix_cache=None).rank_prompts(prompts, top_k=top_k)

    def engine(self, prefix_cache=True):
        """A :class:`repro.serving.LCRecEngine` adapter over this model.

        The engine is what the serving stack (micro-batcher, deadline
        loop, continuous loop) drives; ``prefix_cache`` is forwarded
        to its constructor (``True`` builds a fresh cache).
        """
        from ..serving import LCRecEngine

        return LCRecEngine(self, prefix_cache=prefix_cache)

    def live_catalog(self, retrieval: bool = True, recluster_every: int = 64):
        """A :class:`repro.core.LiveCatalog` over this model's built catalog.

        Version 0 is the build-time trie/index set; ``catalog.ingest``
        then publishes new versions online.  Attach the result to a
        serving engine (:meth:`repro.serving.TrieDecoderEngine.attach_catalog`)
        so new prefills pick up swaps while in-flight decodes stay pinned.
        """
        from .catalog import LiveCatalog

        return LiveCatalog.from_lcrec(self, retrieval=retrieval, recluster_every=recluster_every)

    def intention_instruction(self, intention_text: str) -> str:
        """The first intention-search template over ``intention_text``."""
        return T.ITE_SEARCH_TEMPLATES[0].format(intention=intention_text)

    def recommend_for_intention(self, intention_text: str, top_k: int = 10) -> list[int]:
        """Item retrieval from a natural-language intention (Fig. 3 task)."""
        return self.recommend_from_instruction(
            self.intention_instruction(intention_text), top_k=top_k
        )

    def generate_text(self, instruction: str, max_new_tokens: int = 24) -> str:
        """Free-text generation (titles/descriptions, Fig. 5 case study)."""
        self._require_built()
        ids = prompt_ids(self.tokenizer, instruction, max_len=self.config.tuning.max_len)
        generated = greedy_generate(
            self.lm, ids, max_new_tokens, eos_id=self.tokenizer.vocab.eos_id
        )
        return self.tokenizer.decode(generated)

    def response_logprob(self, instruction: str, response: str) -> float:
        """Length-normalised response log likelihood (Table V scoring)."""
        self._require_built()
        ids = prompt_ids(self.tokenizer, instruction, max_len=self.config.tuning.max_len)
        continuation = self.tokenizer.encode(response)
        if not continuation:
            raise ValueError("empty response")
        return sequence_logprob(self.lm, ids, continuation)

    def pretrained_lm(self) -> TinyLlama:
        """A fresh copy of the LM as it was *before* alignment tuning.

        This is the pure language-semantics comparator ("LLaMA" in
        Table V): it has been pretrained on item texts but has never seen
        item indices or any collaborative signal.
        """
        if self._pretrained_state is None:
            raise RuntimeError("build_language_model() has not run")
        model = TinyLlama(self._pretrained_config)
        model.load_state_dict(self._pretrained_state)
        model.eval()
        return model

    # ------------------------------------------------------------------
    # Introspection (Fig. 4)
    # ------------------------------------------------------------------
    def token_embedding_groups(self) -> dict[str, np.ndarray]:
        """Embedding matrices for index tokens vs item-text tokens."""
        self._require_built()
        vocab = self.tokenizer.vocab
        weights = self.lm.tok_embeddings.weight.data
        index_ids = list(range(vocab.base_size, len(vocab)))
        text_token_ids: set[int] = set()
        for text in self.dataset.catalog.texts():
            text_token_ids.update(self.tokenizer.encode(text))
        text_ids = sorted(text_token_ids - set(index_ids))
        return {
            "item_indices": weights[index_ids],
            "item_texts": weights[text_ids],
        }
