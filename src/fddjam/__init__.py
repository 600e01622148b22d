"""Channel-training MSE simulation for a massive-MIMO downlink under jamming.

The library models the downlink training phase of a frequency-division
duplex link: a large base-station array sends unitary pilots, a
multi-antenna jammer may inject a structured interference block, and the
user terminal forms an MMSE channel estimate. Estimation MSE is available
both in closed form and by Monte Carlo, with experiment sweeps, result
persistence and a CLI on top.
"""

from ._version import __version__

__all__ = ["__version__"]
