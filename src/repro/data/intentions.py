"""Simulated GPT-3.5 outputs: user intentions and preference summaries.

The paper uses GPT-3.5 to (a) extract a user's *intention* for a specific
interaction from its review text (Sec. III-C3b) and (b) infer a user's
explicit *preferences* from their history (Sec. III-C3c).  Neither reviews
nor GPT-3.5 are available offline, so this module produces the same
artifacts directly from the simulator's latent state:

* an **intention text** paraphrases the target item — it shares category /
  subcategory keywords with the item's description but is not a copy
  (keyword subsampling + noise words), like an LLM summary of a review;
* a **preference text** verbalises the user's dominant categories as seen
  in their actual history.

Both texts use only lexicon words, so the tiny LM's vocabulary covers them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import Item, ItemCatalog
from .datasets import SequentialDataset

__all__ = [
    "IntentionGenerator", "IntentionExample", "PreferenceExample", "intention_template_texts"
]

# An intention names 3 to 5 keywords of its item and 2 common noise words.
_MIN_KEYWORDS, _MAX_KEYWORDS = 3, 5
_NOISE_WORDS = 2

_INTENT_OPENERS = [
    "looking for {cat} with",
    "i want a {cat} that has",
    "need {cat} featuring",
    "searching for a {cat} offering",
    "a {cat} with",
]

_PREFERENCE_OPENERS = [
    "the user has recently been interested in {cat} items such as",
    "this user mostly enjoys {cat} products featuring",
    "the user prefers {cat} with",
]


def intention_template_texts() -> list[str]:
    """Opener prose with placeholders stripped (for vocabulary building)."""
    return [t.replace("{cat}", " ")
            for t in _INTENT_OPENERS + _PREFERENCE_OPENERS]


@dataclass(frozen=True)
class IntentionExample:
    """A (user, target item, intention text) triple."""

    user_id: int
    item_id: int
    text: str


@dataclass(frozen=True)
class PreferenceExample:
    """A (user, preference text) pair derived from the user's history."""

    user_id: int
    text: str


class IntentionGenerator:
    """Deterministic stand-in for the GPT-3.5 extraction pipeline."""

    def __init__(
        self,
        catalog: ItemCatalog,
        rng: np.random.Generator,
    ):
        self.catalog = catalog
        self.rng = rng

    # ------------------------------------------------------------------
    def intention_for_item(
        self, item: Item, user_id: int = -1, rng: np.random.Generator | None = None
    ) -> IntentionExample:
        """Paraphrase ``item`` as a user search intention.

        ``rng`` overrides the generator's own stream (callers that need
        per-epoch determinism pass an epoch-seeded generator).
        """
        rng = rng if rng is not None else self.rng
        lexicon = self.catalog.lexicon
        cat_name = lexicon.category_names[item.category]
        sub_pool = lexicon.subcategory_words[item.subcategory]
        cat_pool = lexicon.category_words[item.category]

        n_kw = int(rng.integers(_MIN_KEYWORDS, _MAX_KEYWORDS + 1))
        candidates = list(dict.fromkeys(list(item.keywords) + sub_pool + cat_pool))
        picks = list(rng.choice(candidates, size=min(n_kw, len(candidates)), replace=False))
        common = lexicon.common_words
        noise = [common[int(rng.integers(len(common)))] for _ in range(_NOISE_WORDS)]
        opener = _INTENT_OPENERS[int(rng.integers(len(_INTENT_OPENERS)))]
        text = opener.format(cat=cat_name) + " " + " ".join(picks + noise)
        return IntentionExample(user_id=user_id, item_id=item.item_id, text=text)

    def preference_for_history(
        self, user_id: int, history: list[int], rng: np.random.Generator | None = None
    ) -> PreferenceExample:
        """Summarise a user's dominant categories from their history."""
        rng = rng if rng is not None else self.rng
        if not history:
            raise ValueError("history must be non-empty")
        lexicon = self.catalog.lexicon
        categories = [self.catalog[i].category for i in history]
        values, counts = np.unique(categories, return_counts=True)
        dominant = int(values[np.argmax(counts)])
        cat_name = lexicon.category_names[dominant]
        # Keywords actually observed in the history for that category.
        observed: list[str] = []
        for item_id in history:
            item = self.catalog[item_id]
            if item.category == dominant:
                observed.extend(item.keywords)
        observed = list(dict.fromkeys(observed))[:5]
        if not observed:
            observed = list(lexicon.category_words[dominant][:3])
        opener = _PREFERENCE_OPENERS[
            int(rng.integers(len(_PREFERENCE_OPENERS)))
        ]
        text = opener.format(cat=cat_name) + " " + " ".join(observed)
        return PreferenceExample(user_id=user_id, text=text)

    # ------------------------------------------------------------------
    def test_intentions(self, dataset: SequentialDataset) -> list[IntentionExample]:
        """One intention per test user, targeting the held-out test item.

        This is the evaluation workload of Fig. 3 ("user intentions are used
        as the query and are generated ... based on review data" — here,
        based on the simulator's latent state).
        """
        examples = []
        for user_id, target in enumerate(dataset.split.test_targets):
            examples.append(
                self.intention_for_item(self.catalog[target], user_id=user_id)
            )
        return examples

    def training_intentions(self, dataset: SequentialDataset,
                            per_user: int = 1) -> list[IntentionExample]:
        """Intentions for *training* interactions only (never the test item)."""
        examples = []
        for user_id, seq in enumerate(dataset.split.train_sequences):
            if not seq:
                continue
            count = min(per_user, len(seq))
            picks = self.rng.choice(len(seq), size=count, replace=False)
            for position in picks:
                item = self.catalog[seq[int(position)]]
                examples.append(self.intention_for_item(item, user_id=user_id))
        return examples
