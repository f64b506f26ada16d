"""EEG command decoding and drone swarm simulation.

Pipeline: multichannel EEG recordings (synthetic or from ``.nsr`` files)
are bandpass filtered, epoched into labeled trials, decoded into one of
four swarm commands (CSP spatial filtering + one-vs-rest shrinkage LDA,
evaluated with stratified k-fold cross-validation), and the decoded
commands drive a deterministic 2D simulator of fifty unit drones.
"""

from swarmbci.config import RunConfig
from swarmbci.recording import (
    ChannelLayout,
    EventMarker,
    ParadigmTiming,
    Recording,
    Trial,
    TrialSet,
    extract_trials,
    open_recording,
    save_recording,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelLayout",
    "EventMarker",
    "ParadigmTiming",
    "Recording",
    "RunConfig",
    "Trial",
    "TrialSet",
    "extract_trials",
    "open_recording",
    "save_recording",
]
