"""The mmX IoT node: controller + VCO + SPDT + orthogonal beam pair.

Fig. 3(a) in hardware, one class here.  The node is deliberately dumb:
it holds no channel state, receives no feedback, and never searches for a
beam — it just tunes its VCO to the channel the AP assigned at
initialization and toggles the switch per data bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field


from ..antenna.orthogonal import OrthogonalBeamPair, design_mmx_beams
from ..channel.multipath import ChannelResponse
from ..constants import ISM_24GHZ_HIGH_HZ, ISM_24GHZ_LOW_HZ, NODE_EIRP_DBM
from ..core.ask_fsk import AskFskConfig
from ..core.otam import OtamModulator
from ..hardware.chains import NodeHardware
from ..phy.waveform import Waveform
from .controller import DigitalController, TransmitJob

__all__ = ["MmxNode"]


@dataclass
class MmxNode:
    """A complete mmX node device."""

    node_id: int = 0
    hardware: NodeHardware = field(default_factory=NodeHardware)
    controller: DigitalController = field(default_factory=DigitalController)
    config: AskFskConfig = field(default_factory=AskFskConfig)
    beams: OrthogonalBeamPair = None
    eirp_dbm: float = NODE_EIRP_DBM

    def __post_init__(self):
        self.hardware.switch.validate_bitrate(self.config.bit_rate_bps)
        self._channel_center_hz: float | None = None
        self._modulator = OtamModulator(self.config,
                                        switch=self.hardware.switch,
                                        eirp_dbm=self.eirp_dbm)

    # --- initialization phase (section 4) -------------------------------------

    def assign_channel(self, center_frequency_hz: float) -> None:
        """Accept a channel assignment from the AP (via WiFi/BLE side link).

        Tunes the VCO; rejects carriers the VCO cannot reach or that fall
        outside the ISM band edges the paper operates in.
        """
        vco = self.hardware.vco
        half_bw = self.config.occupied_bandwidth_hz / 2.0
        if (center_frequency_hz - half_bw < ISM_24GHZ_LOW_HZ - 50e6
                or center_frequency_hz + half_bw > ISM_24GHZ_HIGH_HZ + 1e6):
            raise ValueError("assigned channel outside the 24 GHz ISM band")
        # Will raise if the VCO cannot tune there.
        vco.voltage_for_frequency(center_frequency_hz)
        if self.beams is None:
            self.beams = design_mmx_beams(center_frequency_hz)
        self._channel_center_hz = center_frequency_hz

    @property
    def is_initialized(self) -> bool:
        """Whether the AP has assigned this node a channel."""
        return self._channel_center_hz is not None

    # --- transmission phase ----------------------------------------------------

    def frame(self, payload: bytes) -> TransmitJob:
        """Frame a payload into an over-the-air bit sequence."""
        return self.controller.prepare(payload)

    def transmit(self, payload: bytes,
                 channel: ChannelResponse) -> tuple[TransmitJob, Waveform]:
        """Frame and 'radiate' a payload through a traced channel.

        Returns the job and the waveform as it arrives at the AP (before
        receiver noise) — modulation happens over the air, so there is no
        meaningful "transmitted waveform" to return.
        """
        if not self.is_initialized:
            raise RuntimeError("transmit before channel assignment")
        job = self.frame(payload)
        wave = self._modulator.received_waveform(job.beam_bits, channel)
        return job, wave
