"""Lower-bound machinery: hitting games, players, and the Lemma 12 reduction."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Edge": "repro.games.bipartite",
    "HittingGame": "repro.games.bipartite",
    "LazyHittingGame": "repro.games.bipartite",
    "bipartite_hitting_game": "repro.games.bipartite",
    "complete_hitting_game": "repro.games.bipartite",
    "sample_matching": "repro.games.bipartite",
    "DiagonalPlayer": "repro.games.players",
    "ExhaustivePlayer": "repro.games.players",
    "Player": "repro.games.players",
    "UniformRandomPlayer": "repro.games.players",
    "play": "repro.games.players",
    "BroadcastReductionPlayer": "repro.games.reduction",
    "ReductionOutcome": "repro.games.reduction",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
