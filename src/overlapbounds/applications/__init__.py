from .mdf import MDFReport, MDFRow, ldp_mdf_bound, mdf_first_order, vc_bound
from .rates import RateFunctionResult, cramer_rate, sanov_rate
from .glivenko import KnownDistribution, gc_simulate, uniform01
from .slln import partitions_min_two, slln_mdf_report, slln_partition_bound
from .lil import bridge_max_sample, lil_exceedance_thresholds, lil_simulate
from .segments import rare_segments, running_max_segment, segment_rate
