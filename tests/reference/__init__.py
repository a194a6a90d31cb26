"""Outside references: models written from the papers, importing nothing
from ``repro``, that the tests check the simulator against."""
