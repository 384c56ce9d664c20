"""Device layer: the mmX IoT node and access point as stateful objects.

:class:`~repro.node.node.MmxNode` glues the digital controller, VCO,
switch and beam pair into the transmitter of Fig. 3(a);
:class:`~repro.node.access_point.MmxAccessPoint` is the receiver of
Fig. 3(b) plus the network-side bookkeeping (channel allocation,
per-node demodulators).
"""

from .access_point import MmxAccessPoint, NodeRegistration
from .controller import DigitalController, TransmitJob
from .node import MmxNode

__all__ = [
    "DigitalController",
    "MmxAccessPoint",
    "MmxNode",
    "NodeRegistration",
    "TransmitJob",
]
