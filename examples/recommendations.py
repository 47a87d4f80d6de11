"""Recommendations: collaborative filtering as a vertex program (§3.1).

Builds a synthetic user x item ratings bipartite graph with planted taste
clusters, learns latent factors with the CollaborativeFiltering vertex
program (factor vectors stored densely in RANK typed FLOAT columns via
the vector codec), and produces top-N recommendations — then sanity-checks
that held-out ratings are predicted better than chance.

Run:
    python examples/recommendations.py
"""

import numpy as np

from repro import Vertexica
from repro.programs import CollaborativeFiltering

N_USERS = 24
N_ITEMS = 16
RANK = 6


def synthetic_ratings(seed: int = 11) -> list[tuple[int, int, float]]:
    """Two taste clusters: users love their cluster's items (4-5 stars)
    and shrug at the other's (1-2 stars); ~60% of cells observed."""
    rng = np.random.default_rng(seed)
    ratings = []
    for user in range(N_USERS):
        user_cluster = user % 2
        for item in range(N_ITEMS):
            if rng.random() > 0.6:
                continue
            item_cluster = item % 2
            base = 4.5 if user_cluster == item_cluster else 1.5
            ratings.append(
                (user, N_USERS + item, float(np.clip(base + rng.normal(0, 0.3), 1, 5)))
            )
    return ratings


def main() -> None:
    ratings = synthetic_ratings()
    rng = np.random.default_rng(99)
    holdout_idx = set(rng.choice(len(ratings), size=len(ratings) // 10, replace=False))
    train = [r for i, r in enumerate(ratings) if i not in holdout_idx]
    test = [r for i, r in enumerate(ratings) if i in holdout_idx]
    print(f"{N_USERS} users x {N_ITEMS} items, {len(train)} train / {len(test)} held out")

    vx = Vertexica()
    graph = vx.load_graph(
        "ratings",
        [u for u, i, r in train],
        [i for u, i, r in train],
        weights=[r for u, i, r in train],
        symmetrize=True,  # items must message users back
    )

    program = CollaborativeFiltering(
        iterations=60, rank=RANK, learning_rate=0.08, regularization=0.05
    )
    result = vx.run(graph, program)
    print(result.stats.summary())

    train_rmse = program.rmse(result.values, train)
    test_rmse = program.rmse(result.values, test)
    print(f"\nRMSE: train {train_rmse:.3f}, held-out {test_rmse:.3f}")
    spread = np.std([r for _, _, r in ratings])
    print(f"(predicting the mean would score ~{spread:.3f})")

    # Top-N recommendations: unrated items with the highest predicted rating.
    user = 0
    rated = {i for u, i, _ in train if u == user}
    candidates = [
        (item, program.predict(result.values, user, item))
        for item in range(N_USERS, N_USERS + N_ITEMS)
        if item not in rated
    ]
    candidates.sort(key=lambda pair: -pair[1])
    print(f"\ntop recommendations for user {user} (even-cluster user):")
    for item, predicted in candidates[:5]:
        cluster = "same-taste" if (item - N_USERS) % 2 == user % 2 else "other"
        print(f"  item {item - N_USERS:>3} ({cluster:<10}) predicted {predicted:.2f}")

    same = [p for item, p in candidates if (item - N_USERS) % 2 == user % 2]
    other = [p for item, p in candidates if (item - N_USERS) % 2 != user % 2]
    if same and other:
        print(
            f"\nmean predicted rating — same-taste items {np.mean(same):.2f} "
            f"vs other {np.mean(other):.2f}"
        )


if __name__ == "__main__":
    main()
