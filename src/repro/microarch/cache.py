"""Cache geometry and hit/miss statistics (LEON instruction and data caches).

Terminology follows LEON/the paper: a cache is organised as ``sets``
*ways* (1 to 4, 1 meaning direct mapped), each way ("set" in LEON speak)
holding ``setsize_kb`` kilobytes split into lines of ``linesize_words``
32-bit words.  Three replacement policies are supported: random (an LFSR
in the real hardware, a deterministic PRNG here), LRR (least recently
replaced, i.e. FIFO, only defined for 2 ways) and LRU.

The data cache is write-through with no write-allocate, which matches
LEON2: stores update the cache on a hit and go straight to memory on a
miss without fetching the line, so only *load* misses stall the pipeline
for a line fill.

Replay -- turning a trace into :class:`CacheStatistics` for one
:class:`CacheConfig` -- is :mod:`repro.microarch.cachekernel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.config.configuration import Configuration
from repro.config.leon_space import Replacement
from repro.errors import ConfigurationError

__all__ = ["CacheConfig", "CacheStatistics"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one cache."""

    ways: int
    setsize_kb: int
    linesize_words: int
    replacement: str = Replacement.RANDOM
    seed: int = 0xC0FFEE

    def __post_init__(self) -> None:
        if self.ways < 1:
            raise ConfigurationError("cache must have at least one way")
        if self.setsize_kb < 1:
            raise ConfigurationError("cache way size must be at least 1 KB")
        if self.linesize_words < 1:
            raise ConfigurationError("cache line must contain at least one word")
        if self.replacement not in Replacement.ALL:
            raise ConfigurationError(f"unknown replacement policy {self.replacement!r}")
        # Note: LEON restricts LRR to 2-way and LRU to multi-way caches.  That
        # hardware validity rule lives in repro.config.rules and in the BINLP
        # coupling constraints; the simulator itself degrades gracefully (with a
        # single way every policy is equivalent), which lets the one-factor
        # campaign measure replacement-policy perturbations in isolation.
        if self.lines_per_way < 1:
            raise ConfigurationError("cache way smaller than one line")

    # cached: the replay planners read these once per job on hot sweep
    # paths (equality/hash/pickling stay field-only on a frozen dataclass)
    @cached_property
    def linesize_bytes(self) -> int:
        return self.linesize_words * 4

    @cached_property
    def lines_per_way(self) -> int:
        return (self.setsize_kb * 1024) // self.linesize_bytes

    @property
    def total_bytes(self) -> int:
        return self.ways * self.setsize_kb * 1024

    @classmethod
    def icache_from(cls, config: Configuration) -> "CacheConfig":
        """Instruction-cache geometry from a full processor configuration."""
        return cls(
            ways=config.icache_sets,
            setsize_kb=config.icache_setsize_kb,
            linesize_words=config.icache_linesize_words,
            replacement=config.icache_replacement,
        )

    @classmethod
    def dcache_from(cls, config: Configuration) -> "CacheConfig":
        """Data-cache geometry from a full processor configuration."""
        return cls(
            ways=config.dcache_sets,
            setsize_kb=config.dcache_setsize_kb,
            linesize_words=config.dcache_linesize_words,
            replacement=config.dcache_replacement,
        )


@dataclass(frozen=True)
class CacheStatistics:
    """Hit/miss counts of one cache simulation."""

    accesses: int
    read_accesses: int
    write_accesses: int
    read_misses: int
    write_misses: int

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def read_miss_rate(self) -> float:
        return self.read_misses / self.read_accesses if self.read_accesses else 0.0
