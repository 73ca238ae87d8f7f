"""NVM media faults: the failures a line can suffer besides power loss.

:mod:`repro.faults.media` models ECC-detectable transient read faults,
permanent (stuck) faults, and silent bit flips only the HMAC layer can
catch.  It plugs into :class:`~repro.mem.nvm.NVMDevice` through
``set_media_model``; core modules never import this package.

Power failures are not modeled here: :mod:`repro.crashsim` derives every
crash state, including crashes during recovery, from the recorded
persist streams.
"""

from repro.faults.media import MediaFaultModel

__all__ = ["MediaFaultModel"]
