"""Figure 6: generated-content changes caused by each index level (Games).

For a sample of items, generates text from index prefixes of growing
length and counts how often adding level ``h+1`` changes the output.
Paper-shape expectation: the proportion of changes *decreases* with depth
(coarse-to-fine quantisation; the paper reports 96.1% -> 40.5% -> 13.4%).
"""

import numpy as np

from repro.analysis import count_level_changes, generate_from_prefixes
from repro.bench import bench_scale, report


def run_figure(games_dataset, games_lcrec):
    scale = bench_scale()
    sample_size = min(scale.max_eval_users, games_dataset.num_items, 80)
    rng = np.random.default_rng(17)
    sample = rng.choice(games_dataset.num_items, size=sample_size,
                        replace=False)
    studies = [generate_from_prefixes(games_lcrec, int(item),
                                      max_new_tokens=12)
               for item in sample]
    changes = count_level_changes(studies)
    rows = [f"items sampled: {changes.total_items}"]
    for transition, count, proportion in zip(changes.transitions,
                                             changes.change_counts,
                                             changes.change_proportions):
        bar = "#" * int(proportion * 50)
        rows.append(f"level {transition}: changes={count:4d} "
                    f"({proportion:6.1%}) {bar}")
    report("fig6_level_changes", "\n".join(rows))
    return changes


def test_fig6(games_dataset, games_lcrec):
    changes = run_figure(games_dataset, games_lcrec)
    proportions = changes.change_proportions
    # Shape: earlier levels cause at least as many changes as the last.
    assert proportions[0] >= proportions[-1]
