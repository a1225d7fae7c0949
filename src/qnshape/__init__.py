"""qnshape: power-constrained quantization-noise shaping for information
maximizing ADCs.

Compute the information-optimal quantization noise PSD for a channel under a
converter power budget, cross-check it numerically, realize it with a
delta-sigma loop filter, and plan time/frequency interleaved multi-converter
configurations.
"""

from .capacity import (
    BitProfile,
    PowerBudget,
    bits_from_sq,
    capacity_after,
    capacity_before,
    info_loss,
    power_of_bits,
    power_of_sq,
    sq_from_bits,
)
from .deltasigma import (
    DesignInfeasibleError,
    ModulatorConfig,
    RationalTf,
    SimulationTrace,
    TrackingReport,
    design_ntf,
    loop_from_ntf,
    measured_vs_predicted,
    ntf_from_loop,
    ntf_quant_psd,
    read_tf,
    simulate,
    stf_from_loop,
    write_tf,
    write_trace_csv,
)
from .multichannel import (
    PartitionPlan,
    partition_constrained,
    partition_equal_power,
    per_band_shaping,
    time_interleave_psd,
    write_plan_csv,
)
from .shaping import (
    SearchConfig,
    ShapingReport,
    ShapingResult,
    optimal_sq,
    optimal_sq_numerical,
    verify_shaping,
    write_shaping_csv,
    write_summary,
)
from .spectral import (
    ChannelSpec,
    FrequencyGrid,
    Psd,
    estimate_psd,
    make_grid,
    read_channel_csv,
    read_psd_csv,
    to_db,
    wireless_channel,
    wireline_channel,
    write_channel_csv,
    write_psd_csv,
)

__version__ = "0.1.0"
