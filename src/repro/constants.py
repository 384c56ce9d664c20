"""Physical constants and paper-quoted calibration numbers for mmX.

Every number here is either a physical constant or is quoted directly from
Mazaheri et al., "A Millimeter Wave Network for Billions of Things"
(SIGCOMM 2019).  Section references are given inline so each constant can be
traced back to the paper text.
"""

from __future__ import annotations

# --- Physical constants -------------------------------------------------

SPEED_OF_LIGHT = 299_792_458.0
"""Speed of light in vacuum [m/s]."""

BOLTZMANN = 1.380_649e-23
"""Boltzmann constant [J/K]."""

ROOM_TEMPERATURE_K = 290.0
"""Standard noise reference temperature [K]."""

THERMAL_NOISE_DBM_PER_HZ = -174.0
"""Thermal noise floor at 290 K [dBm/Hz]; kT in dBm."""

# --- Spectrum (paper section 7a) ----------------------------------------

ISM_24GHZ_LOW_HZ = 24.0e9
ISM_24GHZ_HIGH_HZ = 24.25e9
ISM_24GHZ_BANDWIDTH_HZ = ISM_24GHZ_HIGH_HZ - ISM_24GHZ_LOW_HZ
"""The 24 GHz ISM band is 250 MHz wide (paper section 7a)."""

ISM_60GHZ_BANDWIDTH_HZ = 7.0e9
"""Unlicensed bandwidth available at 60 GHz (paper section 7a)."""

CARRIER_FREQUENCY_HZ = 24.125e9
"""Mid-band default carrier used throughout the reproduction."""

# --- Attenuation bands (paper section 6.1, citing [4]) ------------------

NLOS_EXCESS_LOSS_DB = (10.0, 20.0)
"""NLoS paths typically see 10-20 dB more attenuation than the LoS path."""

BLOCKAGE_EXCESS_LOSS_DB = (10.0, 15.0)
"""A blocked path typically sees 10-15 dB more attenuation than NLoS."""

BLOCKED_PATH_TOTAL_EXCESS_DB = (20.0, 35.0)
"""Total excess of a *blocked LoS* path over the clear LoS path: the
NLoS band (10-20 dB) plus the blockage band (10-15 dB), per section 6.1.
This is what a human body costs a 24 GHz ray that passes through it."""

# --- Node hardware (paper sections 8.1, 9.1) ----------------------------

NODE_EIRP_DBM = 10.0
"""Radiated power of the mmX node, FCC compliant (section 8.1)."""

VCO_TUNE_VOLTAGE_RANGE_V = (3.5, 4.9)
"""Control-voltage range that sweeps the full ISM band (Fig. 7)."""

VCO_FREQ_RANGE_HZ = (23.95e9, 24.25e9)
"""VCO output range over the tuning voltage range (Fig. 7)."""

SWITCH_MAX_RATE_HZ = 100e6
"""ADRF5020 maximum switching rate; caps node bitrate at 100 Mbps."""

SWITCH_INSERTION_LOSS_DB = 2.0
"""ADRF5020 insertion loss (<2 dB, section 8.1)."""

SWITCH_ISOLATION_DB = 65.0
"""ADRF5020 isolation between output ports (section 8.1)."""

NODE_POWER_W = 1.1
"""Measured node power consumption (section 9.1)."""

NODE_MAX_BITRATE_BPS = 100e6
"""Maximum node data rate, limited by the RF switch (section 9.1)."""

NODE_ENERGY_PER_BIT_J = NODE_POWER_W / NODE_MAX_BITRATE_BPS
"""11 nJ/bit at 100 Mbps (section 9.1)."""

NODE_COST_USD = 110.0
"""Current mmX node BOM cost (footnote 4)."""

# --- Node antenna (paper sections 6.2, 8.1, 9.1) ------------------------

NODE_AZIMUTH_3DB_BEAMWIDTH_DEG = 40.0
"""Azimuth 3 dB beamwidth of each node beam (section 9.1)."""

NODE_ELEVATION_3DB_BEAMWIDTH_DEG = 65.0
"""Elevation beamwidth, similar to a single patch (section 9.1)."""

NODE_FIELD_OF_VIEW_DEG = 120.0
"""Node field of view on its front side (section 9.1)."""

BEAM0_PEAK_DEG = 30.0
"""Beam 0 has two peaks at about +-30 degrees (sections 6.2, 8.1)."""

NODE_MAX_RANGE_M = 18.0
"""Maximum demonstrated range (sections 1, 9.4)."""

# --- AP hardware (paper section 8.2) -------------------------------------

AP_LNA_GAIN_DB = 25.0
"""HMC751 LNA gain at 24 GHz (section 8.2)."""

AP_LNA_NOISE_FIGURE_DB = 2.0
"""HMC751 LNA noise figure (section 8.2)."""

AP_FILTER_INSERTION_LOSS_DB = 5.0
"""Coupled-line microstrip filter passband insertion loss (section 8.2)."""

AP_ANTENNA_GAIN_DBI = 5.0
"""AP dipole antenna gain (section 8.2)."""

AP_ANTENNA_3DB_BEAMWIDTH_DEG = 62.0
"""AP dipole 3 dB beamwidth (section 8.2)."""

# --- Evaluation setup (paper section 9) ----------------------------------

EVAL_ROOM_WIDTH_M = 4.0
EVAL_ROOM_LENGTH_M = 6.0
"""Experiments in section 9.2 ran in a 6 m x 4 m room."""

EVAL_ORIENTATION_RANGE_DEG = (-60.0, 60.0)
"""Node orientation w.r.t. the AP drawn from -60..60 degrees (section 9.2)."""

EVAL_NODE_CHANNEL_BANDWIDTH_HZ = 25e6
"""Each node occupied 25 MHz in the multi-node experiment (section 9.5)."""

AMBIGUOUS_AMPLITUDE_PROBABILITY = 0.10
"""Empirical chance that both beams see similar loss (<10%, section 6.3)."""

HD_VIDEO_BITRATE_BPS = 10e6
"""HD video streaming needs 8-10 Mbps application bitrate (footnote 1)."""
