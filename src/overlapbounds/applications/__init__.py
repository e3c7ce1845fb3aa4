"""Applications of the overlap bounds to almost-sure limit theorems; each name loads its module on first use."""

from .. import _exports

__getattr__, __all__ = _exports(__name__, {
    "mdf": "MDFReport MDFRow ldp_mdf_bound mdf_first_order vc_bound",
    "rates": "RateFunctionResult cramer_rate sanov_rate",
    "glivenko": "KnownDistribution gc_simulate uniform01",
    "slln": "partitions_min_two slln_mdf_report slln_partition_bound",
    "lil": "bridge_max_sample lil_exceedance_thresholds lil_simulate",
    "segments": "rare_segments running_max_segment segment_rate",
})
