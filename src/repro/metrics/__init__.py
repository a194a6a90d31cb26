"""Measurement: statistics, collectors, and the CPU-overhead model."""

from .collectors import (
    FctRecorder,
    FlowRecord,
    RttRecorder,
    ThroughputMeter,
    WindowLogger,
)
from .cpu_model import CpuReport, cpu_percent, datapath_seconds
from .stats import jain_index, moving_average, percentile, summarize

__all__ = [
    "CpuReport",
    "FctRecorder",
    "FlowRecord",
    "RttRecorder",
    "ThroughputMeter",
    "WindowLogger",
    "cpu_percent",
    "datapath_seconds",
    "jain_index",
    "moving_average",
    "percentile",
    "summarize",
]
