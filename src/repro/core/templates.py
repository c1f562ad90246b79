"""Instruction templates for the five alignment task families.

Paper Sec. IV-A4: "For each task, we designed multiple instruction
templates to enhance the instruction diversity.  During a training epoch,
each data is only combined with one sampled instruction template."  The
template wordings below follow the paper's printed examples (Sec. III-C)
with paraphrases.

Placeholders: ``{history}`` (index sequence), ``{title_history}``,
``{title}``, ``{description}``, ``{index}``, ``{intention}``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from ..quantization import ItemIndexSet

__all__ = [
    "SEQ_TEMPLATES",
    "MUT_TEXT_TO_INDEX_TEMPLATES",
    "MUT_INDEX_TO_TEXT_TEMPLATES",
    "MUT_INDEX_TO_TEXT_RESPONSE",
    "ASY_INDEX_TO_TITLE_TEMPLATES",
    "ASY_INDEX_TO_DESCRIPTION_TEMPLATES",
    "ASY_TITLE_TO_INDEX_TEMPLATES",
    "ITE_SEARCH_TEMPLATES",
    "ITE_PERSONALIZED_TEMPLATES",
    "PER_TEMPLATES",
    "BUN_TEMPLATES",
    "EXP_TEMPLATES",
    "EXP_RESPONSE",
    "all_template_texts",
    "seq_instruction",
]

# A. Sequential item prediction (Sec. III-C1). Response: target index.
SEQ_TEMPLATES = [
    (
        "here are the user's historical interactions : {history} , try to "
        "recommend another item to the user . note that the historical "
        "interactions are arranged in chronological order ."
    ),
    (
        "the user has interacted with the following items in chronological "
        "order : {history} . what should be recommended to the user next ?"
    ),
    (
        "based on the user's historical interactions : {history} , what will "
        "the user interact with next ?"
    ),
    (
        "given the interaction sequence {history} , recommend the next item "
        "for this user ."
    ),
]

# B. Explicit index-language alignment (Sec. III-C2).
MUT_TEXT_TO_INDEX_TEMPLATES = [
    (
        "an item is called {title} and described as {description} , can you "
        "tell me which item it is ?"
    ),
    ("which item has the title {title} and the description {description} ?"),
    (
        "an item is described as {description} and its title is {title} . "
        "please identify the item ."
    ),
]

MUT_INDEX_TO_TEXT_TEMPLATES = [
    (
        "please tell me what item {index} is called , along with a brief "
        "description of it ."
    ),
    "can you provide the title and a short description of the item {index} ?",
    "describe the item {index} , including its title .",
]
MUT_INDEX_TO_TEXT_RESPONSE = "item title : {title} item description : {description}"

# C1. Asymmetric item prediction (Sec. III-C3a).
ASY_INDEX_TO_TITLE_TEMPLATES = [
    (
        "based on the user's historical interactions : {history} , try to "
        "predict the title of the item that the user may need next ."
    ),
    (
        "the user interacted with {history} in order . what is the title of "
        "the next item the user needs ?"
    ),
]

ASY_INDEX_TO_DESCRIPTION_TEMPLATES = [
    (
        "here is the item interaction history of the user : {history} , "
        "please tell me what features he expects from his next item ."
    ),
    (
        "given the history {history} , describe the features and attributes "
        "the user expects from the next item ."
    ),
]

ASY_TITLE_TO_INDEX_TEMPLATES = [
    (
        "given the title sequence of user historical interactive items : "
        "{title_history} , can you recommend a suitable next item for the "
        "user ?"
    ),
    (
        "the user bought items with these titles in order : {title_history} . "
        "recommend the next item ."
    ),
]

# C2. Item prediction based on user intention (Sec. III-C3b).
ITE_SEARCH_TEMPLATES = [
    (
        "suppose you are a search engine , now a user searches that : "
        "{intention} , can you select an item to respond to the user's "
        "query ?"
    ),
    (
        "a user submits the query : {intention} . which item best answers "
        "this query ?"
    ),
]

ITE_PERSONALIZED_TEMPLATES = [
    (
        "as a recommender system , you are assisting a user who has recently "
        "interacted with the following items : {history} . the user expresses "
        "a desire to obtain another item with the following characteristics : "
        "{intention} . please recommend an item that meets these criteria ."
    ),
    (
        "the user with history {history} now wants an item with these "
        "characteristics : {intention} . select a matching item ."
    ),
]

# Extension tasks (Sec. III-C3 closing remark: "our approach can be easily
# extended to other tuning tasks ... e.g., bundle prediction and
# explanation generation").
BUN_TEMPLATES = [
    (
        "based on the user's historical interactions : {history} , recommend "
        "a bundle of two items the user is likely to need next ."
    ),
    (
        "given the history {history} , predict the next two items for this "
        "user as a bundle ."
    ),
]

EXP_TEMPLATES = [
    (
        "the user with history {history} was recommended the item {index} . "
        "explain why this item suits the user ."
    ),
    (
        "explain the recommendation of {index} to the user whose history is "
        "{history} ."
    ),
]
EXP_RESPONSE = ("the item {title} matches the user preference for {cat} "
                "items featuring {keywords}")

# C3. Personalized preference inference (Sec. III-C3c).
PER_TEMPLATES = [
    (
        "utilizing the ordered list of the user's historical interaction "
        "items as a reference , please make an informed estimation of the "
        "user's preferences . the historical interactions are as follows : "
        "{history} ."
    ),
    (
        "given the user's interaction history {history} , infer what this "
        "user prefers ."
    ),
]

_ALL_TEMPLATE_GROUPS = [
    SEQ_TEMPLATES,
    MUT_TEXT_TO_INDEX_TEMPLATES,
    MUT_INDEX_TO_TEXT_TEMPLATES,
    [MUT_INDEX_TO_TEXT_RESPONSE],
    ASY_INDEX_TO_TITLE_TEMPLATES,
    ASY_INDEX_TO_DESCRIPTION_TEMPLATES,
    ASY_TITLE_TO_INDEX_TEMPLATES,
    ITE_SEARCH_TEMPLATES,
    ITE_PERSONALIZED_TEMPLATES,
    PER_TEMPLATES,
    BUN_TEMPLATES,
    EXP_TEMPLATES,
    [EXP_RESPONSE],
]

_PLACEHOLDERS = (
    "{history}",
    "{title_history}",
    "{title}",
    "{description}",
    "{index}",
    "{intention}",
    "{cat}",
    "{keywords}",
)


def all_template_texts() -> list[str]:
    """Template prose with placeholders stripped (for vocabulary building)."""
    texts = []
    for group in _ALL_TEMPLATE_GROUPS:
        for template in group:
            text = template
            for placeholder in _PLACEHOLDERS:
                text = text.replace(placeholder, " ")
            texts.append(text)
    return texts


def seq_instruction(
    index_set: "ItemIndexSet", history: Sequence[int], max_history: int, template_id: int
) -> str:
    """The sequential-prediction prompt: the last ``max_history`` items' indices."""
    history_text = " , ".join(index_set.index_text(i) for i in list(history)[-max_history:])
    return SEQ_TEMPLATES[template_id].format(history=history_text)
