"""Table II: statistics of the preprocessed datasets.

Regenerates the #Users / #Items / #Interactions / Sparsity / Avg-length
table for the three dataset presets at the active benchmark scale.  The
paper-shape expectations: sparsity > 95%, average length ~8-9, games the
largest and densest in complements.
"""

from repro.bench import report, scaled_dataset
from repro.data import dataset_statistics, format_table2_row

PRESETS = ("instruments", "arts", "games")


def build_all_stats():
    rows = [f"{'dataset':<12} {'#users':>8} {'#items':>8} "
            f"{'#interactions':>13} {'sparsity':>8} {'avg.len':>8}"]
    stats = []
    for preset in PRESETS:
        dataset = scaled_dataset(preset)
        stat = dataset_statistics(dataset)
        stats.append(stat)
        rows.append(format_table2_row(stat))
    report("table2_dataset_stats", "\n".join(rows))
    return stats


def test_table2():
    stats = build_all_stats()
    # Shape assertions mirroring the paper's Table II.
    for stat in stats:
        assert stat.sparsity > 0.90
        assert 5.0 <= stat.avg_length <= 15.0
    by_name = {s.name: s for s in stats}
    assert by_name["games"].num_users >= by_name["instruments"].num_users
