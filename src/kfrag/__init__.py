"""Keyless data fragmentation, encoding, and dispersal for multi-cloud storage.

The core codec turns data into k interdependent fragments that must all be
gathered for recovery; no encryption key exists or needs managing.  The
package also ships the four classic schemes it is usually compared against,
a statistical security test bench, site-assignment and storage plumbing,
and a throughput harness, all behind one CLI (``kfrag``).
"""

from .baselines import SchemeId
from .codec import CodecParams, Fragment, decode_data, encode_data
from .errors import (
    FragmentationError,
    IntegrityError,
    ParameterError,
    StorageError,
    ThresholdError,
)

__all__ = [
    "CodecParams",
    "Fragment",
    "SchemeId",
    "decode_data",
    "encode_data",
    "FragmentationError",
    "IntegrityError",
    "ParameterError",
    "StorageError",
    "ThresholdError",
]

__version__ = "0.1.0"
