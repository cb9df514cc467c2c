"""Attribution engine: exact Shapley values for small games and
multiplier backpropagation (DeepSHAP) through the network stack."""

from .shapley import (Game, exact_shapley, exact_shapley_batch,
                      feature_exclusion_game)
from .deepshap import (Attribution, deepshap, deepshap_batch,
                       relevance_conservation_check)

__all__ = [
    "Game", "exact_shapley", "exact_shapley_batch", "feature_exclusion_game",
    "Attribution", "deepshap", "deepshap_batch",
    "relevance_conservation_check",
]
