"""Martingale-measure families, super-hedging and optional decomposition
for discrete-time risky-asset evolutions on finite shock spaces."""

from ._engine import NAME as backend_name
from .decomposition import (Decomposition, SupermartingaleSurface,
                            check_ratio_bound, gamma_step, optional_decompose,
                            verify_decomposition)
from .errors import CapExceededError, ValidationError
from .estimation import (EstimatedParams, PriceSample, StatisticSpec,
                         estimate_a, estimated_price, order_statistics,
                         statistic_values)
from .measures import (AlphaDensity, AtomPairSelection, MeasureDensity,
                       SpotMeasure, StepAlpha, alpha_from_partition,
                       integral_representation_check, measure_expectation,
                       mixture_density, psi_weights, spot_expectation,
                       verify_martingale)
from .model import (EvolutionModel, Path, PathIndex, ShockAtom, StepSpec,
                    VolatilitySpec, delta_split, enumerate_paths, load_model,
                    model_from_dict, model_to_dict, price_path, sigma_at,
                    simulate, validate_model)
from .oracle import (OracleBudget, brute_expectation, brute_sup_selections,
                     random_alpha)
from .pricing import (InfResult, Payoff, PriceInterval, SearchConfig,
                      SupResult, closed_form_asian_call,
                      closed_form_asian_put, closed_form_call,
                      closed_form_put, non_arbitrage_interval,
                      payoff_bounds_bounded, payoff_bounds_sublinear,
                      superhedge_inf, superhedge_sup)

__version__ = "0.1.0"
