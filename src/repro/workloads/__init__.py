"""Traffic: applications, workload orchestrators, trace distributions."""

from .apps import BulkSender, EchoSink, MessageStream, PingPong, Sink
from .background import BackgroundFlowGroup
from .generators import ConcurrentStride, Shuffle, TraceDriven
from .traces import (
    DATA_MINING_CDF,
    MICE_CUTOFF_BYTES,
    WEB_SEARCH_CDF,
    FlowSizeDistribution,
    data_mining,
    web_search,
)

__all__ = [
    "BackgroundFlowGroup",
    "BulkSender",
    "ConcurrentStride",
    "DATA_MINING_CDF",
    "EchoSink",
    "FlowSizeDistribution",
    "MICE_CUTOFF_BYTES",
    "MessageStream",
    "PingPong",
    "Shuffle",
    "Sink",
    "TraceDriven",
    "WEB_SEARCH_CDF",
    "data_mining",
    "web_search",
]
