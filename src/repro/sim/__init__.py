"""Discrete-event simulation substrate (engine, timers, seeded RNG)."""

from .engine import Event, SimulationError, Simulator
from .rng import RngFactory
from .timers import PeriodicTimer, Timer

__all__ = [
    "Event",
    "PeriodicTimer",
    "RngFactory",
    "SimulationError",
    "Simulator",
    "Timer",
]
