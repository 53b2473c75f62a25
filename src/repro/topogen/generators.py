"""Topology family constructors: random-geometric, Waxman, ISP tiers,
continental.

All families share one construction discipline:

1. **Place** sites geographically (a continental-US-ish bounding box),
   with every coordinate rounded to six decimals *before* any geometry,
   so the stored artifact and the in-memory graph are computed from
   identical numbers.  The continental family is the one exception: it
   rounds only its node rows (see :func:`build_continental`).
2. **Link** per the family's model, with latency from great-circle
   distance via :func:`repro.netmodel.geo.fiber_latency_ms`.
3. **Patch** the mesh up to the biconnectivity every redundant routing
   scheme needs: connect components with the shortest cross link, then
   repeatedly bridge around articulation points (found with one
   iterative Tarjan pass per round, so patching stays near-linear in
   the mesh size rather than one reachability scan per site).

Determinism: every random draw is keyed on stable names through a
:class:`~repro.util.rng.DeterministicStream`, every iteration is over
sorted sequences, and no draw depends on a prior draw's acceptance --
so ``(family, size, seed)`` fixes the artifact byte for byte.

Scale envelope: N=50 is instant, N=1000 (the registry's cap) costs a
few seconds, dominated by the pairwise great-circle pass.  The declared
``latency_ms`` bounds in each artifact's params are the per-hop floor
(:mod:`repro.netmodel.geo`'s fixed overhead) and the largest
corner-to-corner latency of the box; property tests hold every emitted
link inside them.
"""

from __future__ import annotations

import itertools
import math

from repro.core.graph import NodeId
from repro.netmodel.geo import fiber_latency_ms, great_circle_km
from repro.util.rng import DeterministicStream
from repro.util.validation import require

__all__ = [
    "build_random_geometric",
    "build_waxman",
    "build_isp_hierarchy",
    "build_continental",
]

# Continental-US-ish bounding box shared by the families (the continental
# family keeps a narrower one, recorded in its params).
_BOX = (25.0, 49.0, -124.0, -67.0)  # lat_min, lat_max, lon_min, lon_max

_KM_PER_DEG = 111.32  # mean km per degree of latitude

Position = tuple[float, float]
Adjacency = dict[NodeId, set[NodeId]]


def _box_span_km(box: tuple[float, float, float, float]) -> tuple[float, float]:
    """(north-south, east-west) extent of the box in km."""
    lat_min, lat_max, lon_min, lon_max = box
    mid_lat = math.radians((lat_min + lat_max) / 2.0)
    ns = (lat_max - lat_min) * _KM_PER_DEG
    ew = (lon_max - lon_min) * _KM_PER_DEG * math.cos(mid_lat)
    return ns, ew


def _latency_bounds(box: tuple[float, float, float, float]) -> tuple[float, float]:
    """Declared (min, max) link latency: hop floor to farthest corner pair.

    In a box north of the equator spanning under 90 degrees of longitude,
    no two points lie farther apart than its two farthest corners, and
    those need not end a diagonal: in ``_BOX`` the two southern corners
    (34.71 ms) lie farther apart than either diagonal's (33.88 ms).
    """
    lat_min, lat_max, lon_min, lon_max = box
    corners = [
        (lat, lon) for lat in (lat_min, lat_max) for lon in (lon_min, lon_max)
    ]
    return (
        fiber_latency_ms(lat_min, lon_min, lat_min, lon_min),
        max(
            fiber_latency_ms(*first, *second)
            for first, second in itertools.combinations(corners, 2)
        ),
    )


def _round_position(lat: float, lon: float) -> Position:
    return (round(lat, 6), round(lon, 6))


def _uniform_positions(
    stream: DeterministicStream,
    names: list[NodeId],
    box: tuple[float, float, float, float],
) -> dict[NodeId, Position]:
    lat_min, lat_max, lon_min, lon_max = box
    return {
        name: _round_position(
            stream.uniform_between(lat_min, lat_max, "lat", name),
            stream.uniform_between(lon_min, lon_max, "lon", name),
        )
        for name in names
    }


def _node_names(prefix: str, count: int) -> list[NodeId]:
    width = max(2, len(str(count - 1)))
    return [f"{prefix}{index:0{width}d}" for index in range(count)]


def _distance(positions: dict[NodeId, Position], a: NodeId, b: NodeId) -> float:
    return great_circle_km(*positions[a], *positions[b])


def _add_link(adjacency: Adjacency, a: NodeId, b: NodeId) -> None:
    adjacency[a].add(b)
    adjacency[b].add(a)


# -- biconnectivity patching (shared) ---------------------------------------------


def _components(adjacency: Adjacency, removed: NodeId | None) -> list[list[NodeId]]:
    """Connected components of the graph minus ``removed``, each sorted;
    components ordered by (size, first node) so patching is deterministic."""
    seen: set[NodeId] = set()
    components: list[list[NodeId]] = []
    for start in sorted(adjacency):
        if start == removed or start in seen:
            continue
        component = [start]
        seen.add(start)
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbor in adjacency[node]:
                if neighbor != removed and neighbor not in seen:
                    seen.add(neighbor)
                    component.append(neighbor)
                    frontier.append(neighbor)
        components.append(sorted(component))
    components.sort(key=lambda component: (len(component), component[0]))
    return components


def _articulation_points(adjacency: Adjacency) -> list[NodeId]:
    """Cut vertices via one iterative Tarjan DFS pass, sorted.

    O(V + E) per call, which is what lets patching scale to N=1000 --
    a full reachability scan per site would be quadratic.
    """
    index: dict[NodeId, int] = {}
    low: dict[NodeId, int] = {}
    cuts: set[NodeId] = set()
    counter = 0
    for root in sorted(adjacency):
        if root in index:
            continue
        # Stack entries: (node, parent, iterator over sorted neighbors).
        index[root] = low[root] = counter
        counter += 1
        root_children = 0
        stack = [(root, None, iter(sorted(adjacency[root])))]
        while stack:
            node, parent, neighbors = stack[-1]
            advanced = False
            for neighbor in neighbors:
                if neighbor == parent:
                    continue
                if neighbor in index:
                    low[node] = min(low[node], index[neighbor])
                    continue
                index[neighbor] = low[neighbor] = counter
                counter += 1
                if node == root:
                    root_children += 1
                stack.append((neighbor, node, iter(sorted(adjacency[neighbor]))))
                advanced = True
                break
            if advanced:
                continue
            stack.pop()
            if parent is not None:
                low[parent] = min(low[parent], low[node])
                if parent != root and low[node] >= index[parent]:
                    cuts.add(parent)
        if root_children >= 2:
            cuts.add(root)
    return sorted(cuts)


def _shortest_cross_link(
    positions: dict[NodeId, Position],
    adjacency: Adjacency,
    group_a: list[NodeId],
    group_b: list[NodeId],
) -> tuple[NodeId, NodeId]:
    best: tuple[NodeId, NodeId] | None = None
    best_km = float("inf")
    for a in group_a:
        for b in group_b:
            if b in adjacency[a]:
                continue
            km = _distance(positions, a, b)
            if km < best_km or (km == best_km and best is not None and (a, b) < best):
                best_km = km
                best = (a, b)
    require(best is not None, "no cross link available")
    assert best is not None
    return best


def _patch_biconnected(
    positions: dict[NodeId, Position], adjacency: Adjacency
) -> int:
    """Add shortest links until the graph is biconnected; returns the count.

    First joins disconnected components, then, while any articulation
    point remains, bridges that point's smallest split-off component to
    the rest.  Every added link merges two components of some cut, so
    the loop terminates; on the sparse meshes the families emit it runs
    a handful of rounds.
    """
    added = 0
    components = _components(adjacency, removed=None)
    while len(components) > 1:
        rest = sorted(node for component in components[1:] for node in component)
        _add_link(
            adjacency,
            *_shortest_cross_link(positions, adjacency, components[0], rest),
        )
        added += 1
        components = _components(adjacency, removed=None)
    while True:
        cuts = _articulation_points(adjacency)
        if not cuts:
            return added
        cut = cuts[0]
        split = _components(adjacency, removed=cut)
        rest = sorted(node for component in split[1:] for node in component)
        _add_link(
            adjacency,
            *_shortest_cross_link(positions, adjacency, split[0], rest),
        )
        added += 1


# -- artifact assembly -------------------------------------------------------------


def _assemble(
    family: str,
    seed: int,
    positions: dict[NodeId, Position],
    adjacency: Adjacency,
    tiers: dict[NodeId, str],
    params: dict[str, object],
    box: tuple[float, float, float, float],
):
    from repro.topogen.artifact import GeneratedTopology

    patched = _patch_biconnected(positions, adjacency)
    low, high = _latency_bounds(box)
    nodes = tuple(
        (node, positions[node][0], positions[node][1], tiers[node])
        for node in sorted(positions)
    )
    links = []
    for a in sorted(adjacency):
        for b in sorted(adjacency[a]):
            if a < b:
                links.append((a, b, fiber_latency_ms(*positions[a], *positions[b])))
    return GeneratedTopology(
        family=family,
        seed=seed,
        size=len(nodes),
        params=tuple(
            sorted(
                {
                    **params,
                    "box": list(box),
                    "patched_links": patched,
                    "latency_ms_min": low,
                    "latency_ms_max": high,
                }.items()
            )
        ),
        nodes=nodes,
        links=tuple(sorted(links)),
    )


# -- family: random geometric ------------------------------------------------------


def build_random_geometric(size: int, seed: int):
    """Uniform sites; link every pair within the degree-calibrated radius.

    The radius is solved from the box area so the *expected* degree stays
    near the target as N grows (r^2 ~ 1/N), the classic scaling that
    keeps random-geometric graphs connected without going dense.
    """
    target_degree = 6.0
    stream = DeterministicStream(seed, "topogen", "random-geo")
    names = _node_names("G", size)
    positions = _uniform_positions(stream, names, _BOX)
    ns, ew = _box_span_km(_BOX)
    radius_km = math.sqrt(target_degree * ns * ew / (math.pi * size))
    adjacency: Adjacency = {name: set() for name in names}
    for index, a in enumerate(names):
        for b in names[index + 1 :]:
            if _distance(positions, a, b) <= radius_km:
                _add_link(adjacency, a, b)
    return _assemble(
        "random-geo",
        seed,
        positions,
        adjacency,
        dict.fromkeys(names, "site"),
        {"target_degree": target_degree, "radius_km": round(radius_km, 3)},
        _BOX,
    )


# -- family: Waxman ----------------------------------------------------------------


def build_waxman(size: int, seed: int):
    """Waxman random graph: link probability decays with distance.

    ``P(u, v) = alpha * exp(-d(u, v) / (beta * L))`` with ``L`` the
    longest pairwise distance.  ``alpha`` is calibrated against the
    realised distance distribution so the expected degree matches the
    target at every N -- the standard fixed-alpha form densifies
    quadratically and would be unusable at N=1000.
    """
    target_degree = 6.0
    beta = 0.3
    stream = DeterministicStream(seed, "topogen", "waxman")
    names = _node_names("W", size)
    positions = _uniform_positions(stream, names, _BOX)
    pairs: list[tuple[NodeId, NodeId, float]] = []
    longest = 0.0
    for index, a in enumerate(names):
        for b in names[index + 1 :]:
            km = _distance(positions, a, b)
            longest = max(longest, km)
            pairs.append((a, b, km))
    weight_sum = 0.0
    weights = []
    for a, b, km in pairs:
        weight = math.exp(-km / (beta * longest))
        weights.append(weight)
        weight_sum += weight
    alpha = min(1.0, (target_degree * size / 2.0) / weight_sum)
    adjacency: Adjacency = {name: set() for name in names}
    for (a, b, _km), weight in zip(pairs, weights):
        if stream.uniform("link", a, b) < alpha * weight:
            _add_link(adjacency, a, b)
    return _assemble(
        "waxman",
        seed,
        positions,
        adjacency,
        dict.fromkeys(names, "site"),
        {
            "target_degree": target_degree,
            "beta": beta,
            "alpha": round(alpha, 6),
        },
        _BOX,
    )


# -- family: ISP hierarchy ---------------------------------------------------------


def _farthest_point_cores(
    stream: DeterministicStream, names: list[NodeId], count: int
) -> dict[NodeId, Position]:
    """Spread cores with greedy farthest-point selection over a candidate
    pool -- deterministic, and it reproduces the even backbone spacing of
    real core POPs better than plain uniform draws."""
    pool = [
        _round_position(
            stream.uniform_between(_BOX[0], _BOX[1], "core-lat", index),
            stream.uniform_between(_BOX[2], _BOX[3], "core-lon", index),
        )
        for index in range(max(8 * count, 32))
    ]
    chosen = [pool[0]]
    remaining = pool[1:]
    while len(chosen) < count:
        best_index = 0
        best_score = -1.0
        for index, candidate in enumerate(remaining):
            score = min(great_circle_km(*candidate, *point) for point in chosen)
            if score > best_score:
                best_score = score
                best_index = index
        chosen.append(remaining.pop(best_index))
    return dict(zip(names, chosen))


def _nearest(
    positions: dict[NodeId, Position],
    candidates: list[NodeId],
    target: Position,
    count: int,
) -> list[NodeId]:
    ranked = sorted(
        candidates,
        key=lambda node: (great_circle_km(*target, *positions[node]), node),
    )
    return ranked[:count]


def build_isp_hierarchy(size: int, seed: int):
    """Three-tier ISP-like mesh: core backbone, dual-homed regions, edges.

    * **core** (~N/25, min 4): farthest-point-spread POPs on a ring (by
      longitude) plus nearest-core chords -- a low-diameter backbone;
    * **region** (~N/5): uniform metro sites, each homed to its two
      nearest cores;
    * **edge**: each placed 30-250 km from a parent region chosen
      uniformly, linked to that parent and to its second-nearest region.

    Degree falls off with tier (cores and popular regions accumulate
    children) and link latency falls out of the geography -- short edge
    tails, metro-to-core hauls, long backbone spans.
    """
    stream = DeterministicStream(seed, "topogen", "isp-hier")
    num_core = max(4, size // 25)
    num_region = max(num_core, size // 5)
    num_edge = size - num_core - num_region
    require(
        num_edge >= 1,
        f"isp-hier needs at least {num_core + num_region + 1} sites "
        f"for its tiers, got {size}",
    )
    cores = _node_names("C", num_core)
    regions = _node_names("R", num_region)
    edges = _node_names("E", num_edge)
    positions = _farthest_point_cores(stream, cores, num_core)
    positions.update(_uniform_positions(stream, regions, _BOX))
    adjacency: Adjacency = {
        name: set() for name in cores + regions + edges
    }
    # Core backbone: longitude ring + one nearest-core chord each.
    ring = sorted(cores, key=lambda core: (positions[core][1], core))
    for a, b in zip(ring, ring[1:] + ring[:1]):
        if a != b:
            _add_link(adjacency, a, b)
    for core in cores:
        others = [other for other in cores if other != core]
        nearest = _nearest(positions, others, positions[core], 1)
        for other in nearest:
            _add_link(adjacency, core, other)
    # Regions dual-home to their two nearest cores.
    for region in regions:
        for core in _nearest(positions, cores, positions[region], 2):
            _add_link(adjacency, region, core)
    # Edge sites hang off a parent region, dual-homed to a second region.
    lat_min, lat_max, lon_min, lon_max = _BOX
    for edge in edges:
        parent = regions[stream.randint(len(regions), "parent", edge)]
        distance_km = stream.uniform_between(30.0, 250.0, "edge-km", edge)
        bearing = stream.uniform_between(0.0, 2.0 * math.pi, "edge-dir", edge)
        parent_lat, parent_lon = positions[parent]
        dlat = (distance_km * math.cos(bearing)) / _KM_PER_DEG
        dlon = (distance_km * math.sin(bearing)) / (
            _KM_PER_DEG * math.cos(math.radians(parent_lat))
        )
        positions[edge] = _round_position(
            min(lat_max, max(lat_min, parent_lat + dlat)),
            min(lon_max, max(lon_min, parent_lon + dlon)),
        )
        _add_link(adjacency, edge, parent)
        others = [other for other in regions if other != parent]
        for backup in _nearest(positions, others, positions[edge], 1):
            _add_link(adjacency, edge, backup)
    tiers = {
        **dict.fromkeys(cores, "core"),
        **dict.fromkeys(regions, "region"),
        **dict.fromkeys(edges, "edge"),
    }
    return _assemble(
        "isp-hier",
        seed,
        positions,
        adjacency,
        tiers,
        {"cores": num_core, "regions": num_region, "edges": num_edge},
        _BOX,
    )


# -- family: continental ----------------------------------------------------------


def build_continental(size: int, seed: int):
    """Nearest-neighbour continental overlay: every site linked to its
    three nearest, then patched to biconnectivity.

    Sites are rejection-sampled at least 250 km apart in a narrower box
    than the other families', which caps the family at a few dozen sites
    -- the registry enforces that bound.  Two choices differ from the
    other families and fix this family's bytes (E11's first pass and the
    digests its tests pin): nearest neighbours, patch links and link
    latencies come from the unrounded positions, with only the node rows
    rounded, and the params carry no ``patched_links``.
    """
    from repro.topogen.artifact import GeneratedTopology

    min_degree = 3
    min_separation_km = 250.0
    box = (29.0, 47.0, -122.0, -72.0)
    stream = DeterministicStream(seed, "topo-gen")
    positions: dict[NodeId, Position] = {}
    attempt = 0
    while len(positions) < size:
        attempt += 1
        require(
            attempt < size * 200,
            f"could not place {size} continental sites "
            f"{min_separation_km:g} km apart; reduce the size",
        )
        lat = stream.uniform_between(box[0], box[1], "lat", attempt)
        lon = stream.uniform_between(box[2], box[3], "lon", attempt)
        if all(
            great_circle_km(lat, lon, *placed) >= min_separation_km
            for placed in positions.values()
        ):
            positions[f"S{len(positions):02d}"] = (lat, lon)
    adjacency: Adjacency = {site: set() for site in positions}
    for site in sorted(positions):
        others = [other for other in positions if other != site]
        for neighbor in _nearest(positions, others, positions[site], len(others)):
            if len(adjacency[site]) >= min_degree:
                break
            _add_link(adjacency, site, neighbor)
    _patch_biconnected(positions, adjacency)
    low, high = _latency_bounds(box)
    return GeneratedTopology(
        family="continental",
        seed=seed,
        size=size,
        params=tuple(
            sorted(
                {
                    "min_degree": min_degree,
                    "min_separation_km": min_separation_km,
                    "box": list(box),
                    "latency_ms_min": low,
                    "latency_ms_max": high,
                }.items()
            )
        ),
        nodes=tuple(
            (site, *_round_position(*positions[site]), "site")
            for site in sorted(positions)
        ),
        links=tuple(
            (a, b, fiber_latency_ms(*positions[a], *positions[b]))
            for a in sorted(adjacency)
            for b in sorted(adjacency[a])
            if a < b
        ),
    )
