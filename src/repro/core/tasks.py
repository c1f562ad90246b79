"""Alignment-tuning task builders (paper Sec. III-C).

Builds the per-epoch instruction mixtures for the five task families:

* ``seq`` — sequential item prediction (index history -> target index);
* ``mut`` — explicit index-language alignment, both directions;
* ``asy`` — asymmetric item prediction (index history -> title, index
  history -> description, title history -> index);
* ``ite`` — item prediction from user intention (search-style and
  personalised variants);
* ``per`` — personalised preference inference (index history -> text).

Each datum is rendered with one template sampled fresh every epoch, per
the paper's anti-overfitting strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data import IntentionGenerator, SequentialDataset
from ..llm.instruction import InstructionExample
from ..quantization.indexing import ItemIndexSet
from . import templates as T

__all__ = ["AlignmentTaskConfig", "AlignmentTaskBuilder", "ALL_TASKS", "EXTENSION_TASKS"]

ALL_TASKS = ("seq", "mut", "asy", "ite", "per")
# Optional extras the paper names as natural extensions (Sec. III-C3):
# bundle prediction and explanation generation.  Not part of the default
# mixture so benchmarks match the paper's recipe.
EXTENSION_TASKS = ("bun", "exp")

_MIN_HISTORY = 2  # items before the first training target
_DESCRIPTION_WORDS = 14  # words of an item description in a prompt or response


@dataclass
class AlignmentTaskConfig:
    """Which tasks to build and how much data per family.

    ``seq_per_user`` training pairs per user feed ``seq``; ``asy`` and
    ``ite`` sample one per user, and ``per`` renders one per user.
    """

    tasks: tuple[str, ...] = ALL_TASKS
    max_history: int = 8
    seq_per_user: int = 3
    seed: int = 0

    def validate(self) -> None:
        unknown = set(self.tasks) - set(ALL_TASKS) - set(EXTENSION_TASKS)
        if unknown:
            raise ValueError(f"unknown tasks: {sorted(unknown)}")
        # history[-0:] is the whole history, seq[t - 0:t] none of it.
        if self.max_history < 1:
            raise ValueError(f"max_history must be at least 1, got {self.max_history}")


@dataclass
class AlignmentTaskBuilder:
    """Renders epoch-level instruction mixtures for LC-Rec tuning."""

    dataset: SequentialDataset
    index_set: ItemIndexSet
    intention_generator: IntentionGenerator | None = None
    config: AlignmentTaskConfig = field(default_factory=AlignmentTaskConfig)

    def __post_init__(self):
        self.config.validate()
        needs_intentions = "ite" in self.config.tasks
        if needs_intentions and self.intention_generator is None:
            raise ValueError("'ite' task requires an intention generator")
        self._seq_pairs = self._collect_seq_pairs()

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _collect_seq_pairs(self) -> list[tuple[int, list[int], int]]:
        """All (user, history, target) pairs from the training sequences."""
        pairs = []
        cfg = self.config
        for user, seq in enumerate(self.dataset.split.train_sequences):
            for t in range(_MIN_HISTORY, len(seq)):
                history = seq[max(0, t - cfg.max_history):t]
                pairs.append((user, history, seq[t]))
        if not pairs:
            raise ValueError("no training pairs; sequences too short")
        return pairs

    def _index_text(self, item_id: int) -> str:
        return self.index_set.index_text(item_id)

    def _history_text(self, history: list[int]) -> str:
        return " , ".join(self._index_text(i) for i in history)

    def _title_history_text(self, history: list[int]) -> str:
        return " , ".join(self.dataset.catalog[i].title for i in history)

    def _short_description(self, item_id: int) -> str:
        words = self.dataset.catalog[item_id].description.split()
        return " ".join(words[:_DESCRIPTION_WORDS])

    @staticmethod
    def _pick(rng: np.random.Generator, options: list[str]) -> str:
        return options[int(rng.integers(len(options)))]

    def _sample_pairs(
        self, rng: np.random.Generator, per_user: int
    ) -> list[tuple[int, list[int], int]]:
        """Sample up to ``per_user`` training pairs for every user."""
        by_user: dict[int, list[int]] = {}
        for idx, (user, _, _) in enumerate(self._seq_pairs):
            by_user.setdefault(user, []).append(idx)
        picked = []
        for indices in by_user.values():
            count = min(per_user, len(indices))
            chosen = rng.choice(len(indices), size=count, replace=False)
            picked.extend(indices[int(c)] for c in chosen)
        return [self._seq_pairs[i] for i in picked]

    # ------------------------------------------------------------------
    # Task family renderers
    # ------------------------------------------------------------------
    def _seq_examples(self, rng: np.random.Generator) -> list[InstructionExample]:
        examples = []
        for _, history, target in self._sample_pairs(rng, self.config.seq_per_user):
            template = self._pick(rng, T.SEQ_TEMPLATES)
            examples.append(InstructionExample(
                instruction=template.format(history=self._history_text(history)),
                response=self._index_text(target),
                task="seq",
            ))
        return examples

    def _mut_examples(self, rng: np.random.Generator) -> list[InstructionExample]:
        examples = []
        for item_id in range(self.index_set.num_items):
            item = self.dataset.catalog[item_id]
            description = self._short_description(item_id)
            forward = self._pick(rng, T.MUT_TEXT_TO_INDEX_TEMPLATES)
            examples.append(
                InstructionExample(
                    instruction=forward.format(title=item.title, description=description),
                    response=self._index_text(item_id),
                    task="mut",
                )
            )
            backward = self._pick(rng, T.MUT_INDEX_TO_TEXT_TEMPLATES)
            examples.append(InstructionExample(
                instruction=backward.format(index=self._index_text(item_id)),
                response=T.MUT_INDEX_TO_TEXT_RESPONSE.format(
                    title=item.title, description=description),
                task="mut",
            ))
        return examples

    def _asy_examples(self, rng: np.random.Generator) -> list[InstructionExample]:
        examples = []
        for _, history, target in self._sample_pairs(rng, 1):
            variant = int(rng.integers(3))
            if variant == 0:
                template = self._pick(rng, T.ASY_INDEX_TO_TITLE_TEMPLATES)
                examples.append(InstructionExample(
                    instruction=template.format(
                        history=self._history_text(history)),
                    response=self.dataset.catalog[target].title,
                    task="asy",
                ))
            elif variant == 1:
                template = self._pick(rng, T.ASY_INDEX_TO_DESCRIPTION_TEMPLATES)
                examples.append(InstructionExample(
                    instruction=template.format(
                        history=self._history_text(history)),
                    response=self._short_description(target),
                    task="asy",
                ))
            else:
                template = self._pick(rng, T.ASY_TITLE_TO_INDEX_TEMPLATES)
                examples.append(InstructionExample(
                    instruction=template.format(
                        title_history=self._title_history_text(history)),
                    response=self._index_text(target),
                    task="asy",
                ))
        return examples

    def _ite_examples(self, rng: np.random.Generator) -> list[InstructionExample]:
        examples = []
        for _, history, target in self._sample_pairs(rng, 1):
            intention = self.intention_generator.intention_for_item(
                self.dataset.catalog[target], rng=rng,
            ).text
            if rng.random() < 0.5:
                template = self._pick(rng, T.ITE_SEARCH_TEMPLATES)
                instruction = template.format(intention=intention)
            else:
                template = self._pick(rng, T.ITE_PERSONALIZED_TEMPLATES)
                instruction = template.format(
                    history=self._history_text(history), intention=intention)
            examples.append(InstructionExample(
                instruction=instruction,
                response=self._index_text(target),
                task="ite",
            ))
        return examples

    def _per_examples(self, rng: np.random.Generator) -> list[InstructionExample]:
        examples = []
        generator = self.intention_generator
        cfg = self.config
        for user, seq in enumerate(self.dataset.split.train_sequences):
            if len(seq) < _MIN_HISTORY:
                continue
            history = seq[-cfg.max_history:]
            preference = generator.preference_for_history(user, history, rng=rng).text
            template = self._pick(rng, T.PER_TEMPLATES)
            examples.append(InstructionExample(
                instruction=template.format(history=self._history_text(history)),
                response=preference,
                task="per",
            ))
        return examples

    def _bun_examples(self, rng: np.random.Generator) -> list[InstructionExample]:
        """Bundle prediction: predict the next *two* items (extension)."""
        examples = []
        cfg = self.config
        for user, seq in enumerate(self.dataset.split.train_sequences):
            if len(seq) < _MIN_HISTORY + 2:
                continue
            t = int(rng.integers(_MIN_HISTORY, len(seq) - 1))
            history = seq[max(0, t - cfg.max_history):t]
            bundle = seq[t:t + 2]
            template = self._pick(rng, T.BUN_TEMPLATES)
            examples.append(InstructionExample(
                instruction=template.format(history=self._history_text(history)),
                response=" , ".join(self._index_text(i) for i in bundle),
                task="bun",
            ))
        return examples

    def _exp_examples(self, rng: np.random.Generator) -> list[InstructionExample]:
        """Explanation generation for a recommended item (extension)."""
        examples = []
        lexicon = self.dataset.catalog.lexicon
        for _, history, target in self._sample_pairs(rng, 1):
            item = self.dataset.catalog[target]
            template = self._pick(rng, T.EXP_TEMPLATES)
            response = T.EXP_RESPONSE.format(
                title=item.title,
                cat=lexicon.category_names[item.category],
                keywords=" ".join(item.keywords[:3]),
            )
            examples.append(InstructionExample(
                instruction=template.format(
                    history=self._history_text(history),
                    index=self._index_text(target)),
                response=response,
                task="exp",
            ))
        return examples

    # ------------------------------------------------------------------
    def epoch_examples(self, epoch: int) -> list[InstructionExample]:
        """The instruction mixture for one training epoch."""
        rng = np.random.default_rng(self.config.seed * 1_000_003 + epoch)
        builders = {
            "seq": self._seq_examples,
            "mut": self._mut_examples,
            "asy": self._asy_examples,
            "ite": self._ite_examples,
            "per": self._per_examples,
            "bun": self._bun_examples,
            "exp": self._exp_examples,
        }
        examples: list[InstructionExample] = []
        for task in self.config.tasks:
            examples.extend(builders[task](rng))
        rng.shuffle(examples)
        return examples
