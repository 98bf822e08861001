"""Clock synchronization error budgets and simulation for hybrid
wired/wireless time-sensitive networks.

The package models a grandmaster-to-endpoint chain hop by hop: hardware
timestamping quantization on each medium, cross-domain counter translation
inside wireless bridges, multipath-induced arrival detection error, and the
servo loop that disciplines every slave clock.  An analytic module gives
worst-case budgets for the same chains the simulator runs, so the two views
can be checked against each other.
"""

from .budget import (
    CHAIN_PRESETS,
    HopBudget,
    budget_report,
    chain_max_error,
    chain_preset,
    hop_max_error,
    topology_budget,
    wireless_link_budget,
)
from .cdc import CdcConfig, CdcFeasibilityError, translate_time
from .channel import (
    CHANNEL_CATALOG,
    ChannelRealization,
    FadingConfig,
    LinkGeometry,
    PowerDelayProfile,
    build_pdp,
    detected_excess_series,
    doppler_from_speed,
    propagation_delay_ns,
    realize_channel,
    rms_delay_spread,
    tap_gain_series,
)
from .clocks import quantize_value
from .protocol import (
    PROTOCOL_PRESETS,
    ProtocolConfig,
    SyncSample,
    estimate_offset,
    estimate_path_delay,
)
from .sim import (
    ExperimentConfig,
    HopSpec,
    PortSpec,
    RunStats,
    SIM_PRESETS,
    Topology,
    build_topology,
    compute_stats,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "CHAIN_PRESETS",
    "CHANNEL_CATALOG",
    "CdcConfig",
    "CdcFeasibilityError",
    "ChannelRealization",
    "ExperimentConfig",
    "FadingConfig",
    "HopBudget",
    "HopSpec",
    "LinkGeometry",
    "PROTOCOL_PRESETS",
    "PortSpec",
    "PowerDelayProfile",
    "ProtocolConfig",
    "RunStats",
    "SIM_PRESETS",
    "SyncSample",
    "Topology",
    "budget_report",
    "build_pdp",
    "build_topology",
    "chain_max_error",
    "chain_preset",
    "compute_stats",
    "detected_excess_series",
    "doppler_from_speed",
    "estimate_offset",
    "estimate_path_delay",
    "hop_max_error",
    "propagation_delay_ns",
    "quantize_value",
    "realize_channel",
    "rms_delay_spread",
    "run_experiment",
    "tap_gain_series",
    "topology_budget",
    "translate_time",
    "wireless_link_budget",
    "__version__",
]
