"""Synthetic input generators for the benchmark workloads.

The paper's benchmarks consume real inputs (genomic databases, packet
traces).  We do not have those, so each workload gets a deterministic
synthetic generator that preserves the relevant characteristics:

* DNA sequences are uniform random over {A, C, G, T} with a configurable
  number of *planted* query matches, so BLASTN has genuine seed hits to
  extend and its output can be verified against a Python reference.
* Packet traces are random packet lengths in realistic IP ranges
  (40-1500 bytes), optionally with per-flow identifiers, for DRR and FRAG.

All generators take an explicit seed; default seeds make every workload
reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "dna_sequence",
    "plant_matches",
    "DnaDataset",
    "make_dna_dataset",
    "packet_lengths",
    "PacketTrace",
    "make_packet_trace",
]

#: DNA bases are encoded as 2-bit values 0..3 (A, C, G, T).
DNA_ALPHABET = 4


def dna_sequence(length: int, seed: int) -> np.ndarray:
    """A uniform random DNA sequence of ``length`` bases encoded as 0..3."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, DNA_ALPHABET, size=length, dtype=np.uint8)


def plant_matches(
    database: np.ndarray,
    query: np.ndarray,
    count: int,
    match_length: int,
    seed: int,
) -> np.ndarray:
    """Copy ``count`` random query substrings into the database.

    Returns the modified database (a copy).  Planting guarantees that the
    BLASTN kernel has true positives to find, which makes the verification
    meaningful rather than vacuous.
    """
    database = database.copy()
    if count <= 0 or match_length <= 0:
        return database
    rng = np.random.default_rng(seed)
    match_length = min(match_length, len(query))
    for _ in range(count):
        q_start = int(rng.integers(0, len(query) - match_length + 1))
        d_start = int(rng.integers(0, len(database) - match_length + 1))
        database[d_start:d_start + match_length] = query[q_start:q_start + match_length]
    return database


@dataclass(frozen=True)
class DnaDataset:
    """Inputs of the BLASTN workload."""

    database: np.ndarray
    query: np.ndarray
    word_size: int

    @property
    def database_length(self) -> int:
        return int(len(self.database))

    @property
    def query_length(self) -> int:
        return int(len(self.query))

    @property
    def table_entries(self) -> int:
        """Number of entries of the word lookup table (4^word_size)."""
        return DNA_ALPHABET ** self.word_size


def make_dna_dataset(
    database_length: int = 4096,
    query_length: int = 192,
    word_size: int = 7,
    planted_matches: int = 12,
    planted_length: int = 24,
    seed: int = 2006,
) -> DnaDataset:
    """Build a reproducible BLASTN dataset with planted matches."""
    database = dna_sequence(database_length, seed)
    query = dna_sequence(query_length, seed + 1)
    database = plant_matches(database, query, planted_matches, planted_length, seed + 2)
    return DnaDataset(database=database, query=query, word_size=word_size)


def packet_lengths(count: int, seed: int, minimum: int = 40, maximum: int = 1500) -> np.ndarray:
    """Random IP packet lengths in bytes (inclusive range)."""
    rng = np.random.default_rng(seed)
    return rng.integers(minimum, maximum + 1, size=count, dtype=np.int64)


@dataclass(frozen=True)
class PacketTrace:
    """A synthetic packet trace shared by the network workloads."""

    lengths: np.ndarray
    flow_ids: np.ndarray
    source_addresses: np.ndarray
    destination_addresses: np.ndarray

    @property
    def packet_count(self) -> int:
        return int(len(self.lengths))

    def lengths_for_flow(self, flow: int) -> np.ndarray:
        """Packet lengths belonging to one flow, in arrival order."""
        return self.lengths[self.flow_ids == flow]


def make_packet_trace(
    packet_count: int = 2048,
    flow_count: int = 16,
    seed: int = 1972,
    minimum_length: int = 40,
    maximum_length: int = 1500,
) -> PacketTrace:
    """Build a reproducible packet trace with per-packet flow assignment."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(minimum_length, maximum_length + 1, size=packet_count, dtype=np.int64)
    flow_ids = rng.integers(0, flow_count, size=packet_count, dtype=np.int64)
    sources = rng.integers(0, 2**31, size=packet_count, dtype=np.int64)
    destinations = rng.integers(0, 2**31, size=packet_count, dtype=np.int64)
    return PacketTrace(
        lengths=lengths,
        flow_ids=flow_ids,
        source_addresses=sources,
        destination_addresses=destinations,
    )
