"""Synthetic item catalog with category-structured natural-ish text.

Substitutes the Amazon review datasets (paper Sec. IV-A1), which are not
available offline.  The generator controls exactly the two properties the
paper's phenomena rely on:

* **Language semantics** — items in the same (sub)category share title and
  description vocabulary, so text embeddings cluster by category and the
  RQ-VAE can discover category structure.
* **Item identity** — every item also carries enough idiosyncratic text
  (brand, model code, sampled keywords) that exact identification from
  text is possible, which the explicit index-language alignment task needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Item", "Lexicon", "ItemCatalog", "CatalogConfig", "generate_catalog"]

_ONSETS = [
    "b", "br", "c", "cr", "d", "dr", "f", "fl", "g", "gr", "h", "j", "k",
    "l", "m", "n", "p", "pl", "pr", "r", "s", "st", "t", "tr", "v", "w", "z",
]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "io", "ou"]
_CODAS = ["", "", "", "n", "r", "s", "l", "x", "nd", "rk", "st"]

# Glue words shared across all categories; they make descriptions read like
# product copy and give the language model function-word statistics.
_COMMON_WORDS = (
    "the a an and with for of in to is are this that it from by on new great "
    "best quality premium classic design series edition set features feature "
    "offers perfect ideal includes made high durable original official deluxe "
    "ultimate pro plus standard limited complete collection style size color "
    "easy full comes use designed provides experience performance value top "
    "modern portable compact professional authentic genuine improved advanced"
).split()

# Inclusive ranges: keywords in a title, words in a description.
_TITLE_KEYWORDS = (2, 4)
_DESCRIPTION_WORDS = (14, 24)


def _make_word(rng: np.random.Generator) -> str:
    """Generate a pronounceable pseudo-word of two or three syllables."""
    syllables = rng.integers(2, 4)
    parts = []
    for _ in range(syllables):
        parts.append(_ONSETS[rng.integers(len(_ONSETS))])
        parts.append(_VOWELS[rng.integers(len(_VOWELS))])
    parts.append(_CODAS[rng.integers(len(_CODAS))])
    return "".join(parts)


def _make_unique_words(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        word = _make_word(rng)
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


@dataclass(frozen=True)
class Item:
    """A catalog item (mirrors one Amazon product entry)."""

    item_id: int
    category: int
    subcategory: int
    brand: str
    title: str
    description: str
    keywords: tuple[str, ...]

    def text(self) -> str:
        """Title and description joined — the RQ-VAE embedding input."""
        return f"{self.title}. {self.description}"


@dataclass
class Lexicon:
    """The word pools the generator draws from."""

    common_words: list[str]
    brand_words: list[str]
    category_names: list[str]
    category_words: list[list[str]]
    subcategory_words: list[list[str]]

    def all_words(self) -> list[str]:
        words = list(self.common_words) + list(self.brand_words)
        words += list(self.category_names)
        for pool in self.category_words:
            words += pool
        for pool in self.subcategory_words:
            words += pool
        return words


@dataclass
class CatalogConfig:
    """Parameters of the synthetic catalog."""

    num_items: int = 200
    num_categories: int = 6
    subcategories_per_category: int = 3
    category_pool_size: int = 12
    subcategory_pool_size: int = 8
    num_brands: int = 18

    @property
    def num_subcategories(self) -> int:
        return self.num_categories * self.subcategories_per_category

    def validate(self) -> None:
        if self.num_items < self.num_subcategories:
            raise ValueError("need at least one item per subcategory")
        if self.num_categories < 1 or self.subcategories_per_category < 1:
            raise ValueError("category counts must be positive")


@dataclass
class ItemCatalog:
    """All items plus the lexicon they were generated from."""

    items: list[Item]
    num_categories: int
    num_subcategories: int
    lexicon: Lexicon
    config: CatalogConfig = field(repr=False, default=None)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, item_id: int) -> Item:
        return self.items[item_id]

    def __iter__(self):
        return iter(self.items)

    def texts(self) -> list[str]:
        """One text per item (title + description), id-ordered."""
        return [item.text() for item in self.items]

    def categories(self) -> np.ndarray:
        return np.array([item.category for item in self.items])

    def subcategories(self) -> np.ndarray:
        return np.array([item.subcategory for item in self.items])

    def subset(self, item_ids: list[int]) -> "ItemCatalog":
        """Reindexed catalog containing only ``item_ids`` (dense new ids)."""
        new_items = []
        for new_id, old_id in enumerate(item_ids):
            old = self.items[old_id]
            new_items.append(Item(
                item_id=new_id,
                category=old.category,
                subcategory=old.subcategory,
                brand=old.brand,
                title=old.title,
                description=old.description,
                keywords=old.keywords,
            ))
        return ItemCatalog(
            items=new_items,
            num_categories=self.num_categories,
            num_subcategories=self.num_subcategories,
            lexicon=self.lexicon,
            config=self.config,
        )


def _build_lexicon(config: CatalogConfig, rng: np.random.Generator) -> Lexicon:
    taken: set[str] = set(_COMMON_WORDS)
    brands = _make_unique_words(rng, config.num_brands, taken)
    category_names = _make_unique_words(rng, config.num_categories, taken)
    category_words = [
        _make_unique_words(rng, config.category_pool_size, taken)
        for _ in range(config.num_categories)
    ]
    subcategory_words = [
        _make_unique_words(rng, config.subcategory_pool_size, taken)
        for _ in range(config.num_subcategories)
    ]
    return Lexicon(
        common_words=list(_COMMON_WORDS),
        brand_words=brands,
        category_names=category_names,
        category_words=category_words,
        subcategory_words=subcategory_words,
    )


def _compose_title(
    item_cat: int,
    item_sub: int,
    brand: str,
    lexicon: Lexicon,
    rng: np.random.Generator,
) -> tuple[str, list[str]]:
    n_keywords = int(rng.integers(_TITLE_KEYWORDS[0], _TITLE_KEYWORDS[1] + 1))
    cat_pool = lexicon.category_words[item_cat]
    sub_pool = lexicon.subcategory_words[item_sub]
    keywords = [cat_pool[rng.integers(len(cat_pool))]]
    while len(keywords) < n_keywords:
        pool = sub_pool if rng.random() < 0.6 else cat_pool
        word = pool[rng.integers(len(pool))]
        if word not in keywords:
            keywords.append(word)
    model_code = f"{lexicon.category_names[item_cat]} {rng.integers(100, 999)}"
    title = f"{brand} {' '.join(keywords)} {model_code}"
    return title.strip(), keywords


def _compose_description(
    item_cat: int,
    item_sub: int,
    keywords: list[str],
    lexicon: Lexicon,
    rng: np.random.Generator,
) -> str:
    length = int(rng.integers(_DESCRIPTION_WORDS[0], _DESCRIPTION_WORDS[1] + 1))
    cat_pool = lexicon.category_words[item_cat]
    sub_pool = lexicon.subcategory_words[item_sub]
    common = lexicon.common_words
    words: list[str] = list(keywords)
    while len(words) < length:
        roll = rng.random()
        if roll < 0.40:
            words.append(common[rng.integers(len(common))])
        elif roll < 0.75:
            words.append(cat_pool[rng.integers(len(cat_pool))])
        else:
            words.append(sub_pool[rng.integers(len(sub_pool))])
    rng.shuffle(words)
    # Insert the category name so coarse semantics are always present.
    words.insert(int(rng.integers(0, 3)), lexicon.category_names[item_cat])
    return " ".join(words)


def generate_catalog(config: CatalogConfig, rng: np.random.Generator) -> ItemCatalog:
    """Generate a seeded synthetic catalog according to ``config``."""
    config.validate()
    lexicon = _build_lexicon(config, rng)
    items: list[Item] = []
    for item_id in range(config.num_items):
        category = int(rng.integers(config.num_categories))
        subcategory = category * config.subcategories_per_category + int(
            rng.integers(config.subcategories_per_category)
        )
        brand = lexicon.brand_words[int(rng.integers(len(lexicon.brand_words)))]
        title, keywords = _compose_title(category, subcategory, brand, lexicon, rng)
        description = _compose_description(category, subcategory, keywords, lexicon, rng)
        items.append(Item(
            item_id=item_id,
            category=category,
            subcategory=subcategory,
            brand=brand,
            title=title,
            description=description,
            keywords=tuple(keywords),
        ))
    return ItemCatalog(
        items=items,
        num_categories=config.num_categories,
        num_subcategories=config.num_subcategories,
        lexicon=lexicon,
        config=config,
    )
