"""Core dissemination-graph abstractions and routing algorithms.

This package implements the paper's primary contribution:

* :mod:`repro.core.graph` -- the overlay topology substrate.
* :mod:`repro.core.dgraph` -- dissemination graphs, the unified framework
  for specifying routing schemes from a single path to arbitrary graphs.
* :mod:`repro.core.algorithms` -- from-scratch graph algorithms (shortest
  paths, disjoint path pairs, flows, Steiner arborescences) on one
  integer-indexed routing graph per frozen topology.
* :mod:`repro.core.builders` -- constructors for every dissemination-graph
  family the paper evaluates (single path, k disjoint paths,
  time-constrained flooding, targeted source/destination-problem graphs).
* :mod:`repro.core.detection` -- problem detection and classification that
  drives graph switching.
* :mod:`repro.core.encoding` -- compact wire encoding of dissemination
  graphs as edge bitmasks (how graphs travel in packet headers).
"""

from repro.core.dgraph import DisseminationGraph
from repro.core.graph import Link, Topology

__all__ = ["DisseminationGraph", "Link", "Topology"]
