"""mmWave propagation substrate: path loss, ray tracing, multipath, noise.

mmWave channels are sparse — "typically there are a few paths" between a
node and the AP (section 2, citing [42]).  The reproduction builds those
paths explicitly with an image-method ray tracer over the room geometry,
applies Friis path loss plus the paper's reflection/blockage excess-loss
bands, and exposes per-beam complex channel gains to the OTAM core.
"""

from .multipath import (
    ChannelResponse,
    beam_channel_gain,
    two_beam_gains,
    two_beam_responses,
)
from .noise import noise_power_dbm, complex_awgn
from .pathloss import (
    free_space_path_loss_db,
    log_distance_path_loss_db,
    friis_received_power_dbm,
    oxygen_absorption_db,
)
from .raytrace import PropagationPath, trace_paths
from .statistics import (
    ChannelStats,
    angular_spread_rad,
    characterize,
    rician_k_factor_db,
    rms_delay_spread_s,
)

__all__ = [
    "ChannelResponse",
    "ChannelStats",
    "PropagationPath",
    "angular_spread_rad",
    "beam_channel_gain",
    "characterize",
    "complex_awgn",
    "free_space_path_loss_db",
    "friis_received_power_dbm",
    "log_distance_path_loss_db",
    "noise_power_dbm",
    "oxygen_absorption_db",
    "rician_k_factor_db",
    "rms_delay_spread_s",
    "trace_paths",
    "two_beam_gains",
    "two_beam_responses",
]
