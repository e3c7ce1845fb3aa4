"""Moment bounds for overlap (deviation-count) statistics, with verification.

The package quantifies how often a family of rare events occurs: given a
decay model for the event probabilities it computes exact identities,
moment bounds and tail bounds for the overlap count, verifies them against
exact small-instance distributions and a deterministic Monte-Carlo engine,
and applies the machinery to classical almost-sure limit theorems.

Each public name loads its home module on first use, so importing the
package, or running a closed-form CLI command, loads no numpy.
"""

import importlib.util
import sys
from types import ModuleType
from typing import Any, Callable

__version__ = "0.1.0"


def _lazy_module(name: str) -> ModuleType:
    """Module ``name``, registered in ``sys.modules`` and on its parent now and executed on its first attribute access.

    This is importlib's ``LazyLoader`` recipe.  Python 3.11's lazy module takes
    no lock, so its first access must come from one thread, before any pool starts.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    setattr(sys.modules[parent], child, module)
    return module


def _exports(package: str, homes: dict[str, str]) -> tuple[Callable[[str], Any], list[str]]:
    """The PEP 562 ``__getattr__`` and the ``__all__`` of ``package``, whose ``homes`` maps a submodule to its names.

    A name is read from its home submodule on first use and kept in the package's globals.
    """
    home_of = {name: home for home, names in homes.items() for name in names.split()}

    def __getattr__(name: str) -> Any:
        if name not in home_of:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{home_of[name]}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, list(home_of)


__getattr__, __all__ = _exports(__name__, {
    "closed": "BoundResult TailFunction freedman_exp_bound freedman_tail_bound geometric_tail_bound improved_exp_bound "
              "lambert_w0 powerlaw_tail_asymptotic rate_aware_exp_bound second_moment_bound",
    "bounds": "ExactOverlapDistribution exp_moment_bound general_moment_bound nested_moment_identity poly_moment_bound "
              "sn_exact_distribution",
    "engine": "EmpiricalMoment EventFamilySpec OverlapSample choose_truncation empirical_moment read_sample_jsonl "
              "simulate_overlap write_sample_jsonl",
    "errors": "DivergenceError DomainError FunctionalOverflowError InputError NonConvergenceError OverlapBoundsError "
              "TruncationError",
    "series": "DecayModel Explicit Geometric PowerLaw SeriesValue WeightSequence bernoulli_numbers faulhaber_sum tail_sum "
              "weighted_tail_closed_form weighted_tail_series zeta",
})
