"""Problem instances, token placements, swap solutions, routed circuits.

Conventions used throughout the package:
 - hardware nodes and tokens are 0-based contiguous ints
 - a placement maps token -> node and is always a bijection; when the
   algorithm has fewer qubits than the hardware has nodes, the trailing
   token ids act as dummies with no connections
 - a swap step is a matching of the hardware graph, applied simultaneously
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from math import inf
from typing import NamedTuple

from .graphs import Graph, _normalize_edge, _parse_edge, _parse_int

Edge = tuple[int, int]
Matching = tuple[Edge, ...]


@dataclass(frozen=True)
class TmpInstance:
    """A routing instance: hardware graph plus algorithm (interaction) graph."""

    hardware: Graph
    algorithm: Graph

    def __post_init__(self):
        if self.algorithm.n > self.hardware.n:
            raise ValueError(
                f"algorithm has {self.algorithm.n} qubits but hardware only "
                f"{self.hardware.n} nodes"
            )

    @property
    def num_nodes(self) -> int:
        return self.hardware.n

    @property
    def connections(self) -> tuple[Edge, ...]:
        return self.algorithm.edges

    def algorithm_is_complete(self) -> bool:
        """True when every token pair interacts (no dummies, complete graph)."""
        return self.algorithm.n == self.hardware.n and self.algorithm.is_complete()

    def to_dict(self) -> dict:
        return {"hardware": self.hardware.to_dict(), "algorithm": self.algorithm.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> TmpInstance:
        if not isinstance(data, dict) or "hardware" not in data or "algorithm" not in data:
            raise ValueError("instance object needs 'hardware' and 'algorithm'")
        return cls(Graph.from_dict(data["hardware"]), Graph.from_dict(data["algorithm"]))


@dataclass(frozen=True)
class TokenPlacement:
    """Bijection token -> node, stored as a tuple indexed by token."""

    pos: tuple[int, ...]

    def __post_init__(self):
        n = len(self.pos)
        if sorted(self.pos) != list(range(n)):
            raise ValueError(f"placement {self.pos} is not a bijection on 0..{n - 1}")

    @classmethod
    def identity(cls, n: int) -> TokenPlacement:
        return cls(tuple(range(n)))

    def __len__(self) -> int:
        return len(self.pos)

    def node_of(self, token: int) -> int:
        return self.pos[token]

    @cached_property
    def token_at(self) -> tuple[int, ...]:
        inv = [0] * len(self.pos)
        for token, node in enumerate(self.pos):
            inv[node] = token
        return tuple(inv)

    def apply_matching(self, matching: Matching) -> TokenPlacement:
        return apply_matching(self, matching)


def check_matching(matching: Matching) -> None:
    """Raise if the edge set is not a matching (shared endpoints, self loops)."""
    seen: set[int] = set()
    for u, v in matching:
        if u == v:
            raise ValueError(f"swap {u, v} is a self loop")
        if u in seen or v in seen:
            raise ValueError(f"edges {matching} share endpoint(s), not a matching")
        seen.update((u, v))


def apply_matching(placement: TokenPlacement, matching: Matching) -> TokenPlacement:
    """Swap the tokens on each matched node pair, all pairs at once."""
    check_matching(matching)
    pos = list(placement.pos)
    tok = placement.token_at
    for u, v in matching:
        if not (0 <= u < len(pos) and 0 <= v < len(pos)):
            raise ValueError(f"swap {u, v} out of range")
        pos[tok[u]], pos[tok[v]] = v, u
    return TokenPlacement(tuple(pos))


@dataclass(frozen=True)
class SwapSolution:
    """Initial placement plus one matching per swap step."""

    initial: TokenPlacement
    matchings: tuple[Matching, ...]

    @property
    def steps(self) -> int:
        return len(self.matchings)

    @property
    def swaps(self) -> int:
        return sum(len(m) for m in self.matchings)

    def compacted(self) -> SwapSolution:
        """The same solution with its empty steps dropped."""
        return SwapSolution(self.initial, tuple(m for m in self.matchings if m))

    def to_dict(self) -> dict:
        return {
            "initial": list(self.initial.pos),
            "matchings": [[list(e) for e in m] for m in self.matchings],
        }

    @classmethod
    def from_dict(cls, data: dict) -> SwapSolution:
        if not isinstance(data, dict) or "initial" not in data or "matchings" not in data:
            raise ValueError("swap solution object needs 'initial' and 'matchings'")
        return cls(
            TokenPlacement(tuple(_parse_int(x) for x in data["initial"])),
            tuple(
                tuple(_parse_edge(e) for e in m)
                for m in data["matchings"]
            ),
        )


def placement_trajectory(solution: SwapSolution) -> list[TokenPlacement]:
    """All placements the solution passes through, initial one included."""
    out = [solution.initial]
    for m in solution.matchings:
        out.append(out[-1].apply_matching(m))
    return out


@dataclass
class SwapValidation:
    valid: bool
    steps: int
    swaps: int
    uncovered: list[Edge] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "steps": self.steps,
            "swaps": self.swaps,
            "uncovered": [list(e) for e in self.uncovered],
            "problems": self.problems,
        }


def validate_swap_solution(inst: TmpInstance, solution: SwapSolution) -> SwapValidation:
    """Structural and coverage diagnostics; never raises on a bad solution.

    Coverage swaps the tokens of one flat node -> token list in place, step
    by step, rather than building each placement of the trajectory.
    """
    problems: list[str] = []
    n = inst.num_nodes
    if len(solution.initial) != n:
        return SwapValidation(
            False, solution.steps, solution.swaps,
            problems=[f"initial placement has size {len(solution.initial)}, expected {n}"],
        )
    for t, m in enumerate(solution.matchings, start=1):
        try:
            check_matching(m)
        except ValueError as exc:
            problems.append(f"step {t}: {exc}")
            continue
        for e in m:
            if _normalize_edge(*e) not in inst.hardware.edge_set:
                problems.append(f"step {t}: swap {e} is not a hardware edge")
    if problems:
        return SwapValidation(False, solution.steps, solution.swaps, problems=problems)
    conns = inst.algorithm.edge_set
    tok = list(solution.initial.token_at)
    covered: set[Edge] = set()
    for m in (*solution.matchings, ()):
        for u, v in inst.hardware.edges:
            a, b = tok[u], tok[v]
            pair = (a, b) if a < b else (b, a)
            if pair in conns:
                covered.add(pair)
        for u, v in m:
            tok[u], tok[v] = tok[v], tok[u]
    uncovered = sorted(conns - covered)
    if uncovered:
        problems.append(f"{len(uncovered)} connection(s) never adjacent")
    return SwapValidation(not problems, solution.steps, solution.swaps, uncovered, problems)


@dataclass(frozen=True)
class CircuitLayer:
    """One depth slot: disjoint swap gates and two-qubit gates on hardware edges."""

    swap_edges: Matching = ()
    gate_edges: Matching = ()

    def to_dict(self) -> dict:
        return {
            "swap_edges": [list(e) for e in self.swap_edges],
            "gate_edges": [list(e) for e in self.gate_edges],
        }

    @classmethod
    def from_dict(cls, data: dict) -> CircuitLayer:
        if not isinstance(data, dict):
            raise ValueError(f"circuit layer {data!r} is not an object")
        return cls(
            tuple(_parse_edge(e) for e in data.get("swap_edges", [])),
            tuple(_parse_edge(e) for e in data.get("gate_edges", [])),
        )


@dataclass(frozen=True)
class RoutedCircuit:
    initial: TokenPlacement
    layers: tuple[CircuitLayer, ...]

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def swaps(self) -> int:
        return sum(len(layer.swap_edges) for layer in self.layers)

    def to_dict(self) -> dict:
        return {
            "initial": list(self.initial.pos),
            "layers": [layer.to_dict() for layer in self.layers],
        }

    @classmethod
    def from_dict(cls, data: dict) -> RoutedCircuit:
        if not isinstance(data, dict) or "initial" not in data or "layers" not in data:
            raise ValueError("routed circuit object needs 'initial' and 'layers'")
        layers = tuple(CircuitLayer.from_dict(layer) for layer in data["layers"])
        return cls(TokenPlacement(tuple(_parse_int(x) for x in data["initial"])), layers)


@dataclass
class CircuitValidation:
    valid: bool
    depth: int
    swaps: int
    problems: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "depth": self.depth,
            "swaps": self.swaps,
            "problems": self.problems,
        }


def validate_routed_circuit(inst: TmpInstance, circuit: RoutedCircuit) -> CircuitValidation:
    """Check layer structure and that every connection runs exactly once.

    The layers swap the tokens of one flat node -> token list in place
    rather than building a placement per layer.
    """
    problems: list[str] = []
    n = inst.num_nodes
    if len(circuit.initial) != n:
        return CircuitValidation(
            False, circuit.depth, circuit.swaps,
            [f"initial placement has size {len(circuit.initial)}, expected {n}"],
        )
    edge_set = inst.hardware.edge_set
    conns = inst.algorithm.edge_set
    tok = list(circuit.initial.token_at)
    remaining = set(inst.connections)
    for d, layer in enumerate(circuit.layers, start=1):
        combined = tuple(layer.swap_edges) + tuple(layer.gate_edges)
        try:
            check_matching(combined)
        except ValueError as exc:
            problems.append(f"layer {d}: {exc}")
            break
        bad = [e for e in combined if _normalize_edge(*e) not in edge_set]
        if bad:
            problems.append(f"layer {d}: non-hardware edge(s) {bad}")
            break
        for u, v in layer.gate_edges:
            a, b = tok[u], tok[v]
            pair = (a, b) if a < b else (b, a)
            if pair not in conns:
                problems.append(f"layer {d}: gate on {u, v} acts on tokens {pair}, not a connection")
            elif pair not in remaining:
                problems.append(f"layer {d}: connection {pair} executed twice")
            else:
                remaining.discard(pair)
        for u, v in layer.swap_edges:
            tok[u], tok[v] = tok[v], tok[u]
    if remaining:
        problems.append(f"{len(remaining)} connection(s) never executed")
    return CircuitValidation(not problems, circuit.depth, circuit.swaps, problems)


class EmbeddingOrder(NamedTuple):
    """The order `embed_masks` places the vertices of a gate graph in, and
    what it prunes with.

    vertices[k] is the vertex placed at position k, earlier[k] the positions
    before k that hold its neighbours, and degree[k] its degree. pending[k]
    holds a pair (j, r) for each position j < k whose vertex has r > 0
    neighbours at position k or later, except the positions in earlier[k - 1].
    need[d] is the number of vertices of degree d or more, for d up to the
    largest degree.
    """

    vertices: tuple[int, ...]
    earlier: tuple[tuple[int, ...], ...]
    degree: tuple[int, ...]
    pending: tuple[tuple[tuple[int, int], ...], ...]
    need: tuple[int, ...]


# gate Graph -> its EmbeddingOrder, for as long as the Graph lives
_orders: weakref.WeakKeyDictionary[Graph, EmbeddingOrder] = weakref.WeakKeyDictionary()


def embedding_order(a: Graph) -> EmbeddingOrder:
    """Connected order: next the vertex with the most neighbours already
    placed, then the one of higher degree, then the lower index.

    Built once per gate `Graph` and kept in a weak-key table, so the
    direct-placement check and every search on one gate graph share it; an
    entry lives as long as the caller's graph (or an equal one that was
    first), and holds no reference to it.
    """
    order = _orders.get(a)
    if order is not None:
        return order
    n = a.n
    nbrs = a.adjacency
    deg = [len(q) for q in nbrs]
    # placed neighbours weigh n each, more than any degree
    score = deg[:]
    left = list(range(n))
    position = [n] * n
    vertices: list[int] = []
    earlier: list[tuple[int, ...]] = []
    pending: list[tuple[tuple[int, int], ...]] = []
    later = [0] * n  # per position, its neighbours not placed yet
    back: tuple[int, ...] = ()
    while left:
        p = max(left, key=score.__getitem__)  # the first maximum: the lower index
        left.remove(p)
        k = len(vertices)
        pending.append(tuple((j, r) for j, r in enumerate(later[:k]) if r and j not in back))
        back = tuple(position[q] for q in nbrs[p] if position[q] < k)
        for j in back:
            later[j] -= 1
        later[k] = deg[p] - len(back)
        position[p] = k
        vertices.append(p)
        earlier.append(back)
        for q in nbrs[p]:
            score[q] += n
    top = max(deg, default=0)
    need = [0] * (top + 1)
    for d in deg:
        need[d] += 1
    for d in range(top, 0, -1):
        need[d - 1] += need[d]
    order = _orders[a] = EmbeddingOrder(
        tuple(vertices), tuple(earlier), tuple(deg[p] for p in vertices), tuple(pending),
        tuple(need))
    return order


def embed_masks(
    order: EmbeddingOrder, adj: list[int], limit: float = inf
) -> tuple[list[int] | None, int]:
    """The search behind `embed_within`, for a gate graph given by its
    `embedding_order` and a host graph whose node i has the neighbour
    bitmask adj[i]; returns (image, steps) as `embed_within` does."""
    vertices, earlier, degree, pending, need = order
    size = len(vertices)
    if not size:
        return [], 0
    # at_least[d]: nodes with at least d neighbours, of which need[d] are needed
    top = len(need) - 1
    at_least = [0] * (top + 1)
    for node, nbrs in enumerate(adj):
        at_least[min(nbrs.bit_count(), top)] |= 1 << node
    for d in range(top, 0, -1):
        if at_least[d].bit_count() < need[d]:
            return None, 0
        at_least[d - 1] |= at_least[d]
    ok = [at_least[d] for d in degree]
    placed = [0] * size  # the node at each position
    cands = [0] * size  # the candidates position k has yet to try
    cands[0] = ok[0]
    used = 0
    steps = 0
    k = 0
    while True:
        c = cands[k]
        if not c:
            if not k:
                return None, steps
            k -= 1
            used ^= 1 << placed[k]
            continue
        low = c & -c
        cands[k] = c ^ low
        steps += 1
        if steps > limit:
            return None, steps
        placed[k] = low.bit_length() - 1
        k += 1
        if k == size:
            image = [0] * size
            for p, node in zip(vertices, placed):
                image[p] = node
            return image, steps
        used |= low
        c = ok[k] & ~used
        for j in earlier[k]:
            c &= adj[placed[j]]
        if c:
            free = ~used
            for j, r in pending[k]:
                if (adj[placed[j]] & free).bit_count() < r:
                    c = 0
                    break
        cands[k] = c


def embed_within(a: Graph, h: Graph, limit: float = inf) -> tuple[list[int] | None, int]:
    """Backtracking embedding of graph a into graph h as a subgraph
    (injective and edge-preserving, not necessarily induced).

    Returns (image, steps): image[p] is the node of h that vertex p of a
    maps to, or None when no embedding exists; steps counts the vertex
    placements tried. The search gives up at the first step past `limit`,
    so steps <= limit + 1, and a None image with steps > limit is
    undecided, not a no.

    Order. The vertices of a are placed in `embedding_order`, fixed once
    per gate graph: next the vertex with the most neighbours already
    placed, then the one of higher degree, so most placements have a
    placed neighbour to prune against.

    Counting reject. Before any step: for each d, if fewer nodes of h have
    at least d neighbours than vertices of a have degree d or more, the
    answer is no. An embedding maps the deg(p) neighbours of p injectively
    onto neighbours of p's image, so it maps the vertices of degree >= d
    injectively into the nodes with >= d neighbours (Hall's condition on
    degrees).

    Candidates. Each node of h has a bitmask of its neighbours. The
    candidates for vertex p are the nodes that are free, have at least
    deg(p) neighbours, and lie in the neighbour mask of the image of every
    neighbour of p placed before it; they are tried lowest node first, and
    each one tried is a step. The search runs iteratively, one candidate
    mask per position, and backtracks when a position's mask is empty.

    Free-neighbour lookahead. A placed vertex q with r neighbours not yet
    placed needs r free neighbours of its image: the embedding maps those
    neighbours, injectively, onto neighbours of q's image that no placed
    vertex holds. So when some placed q has fewer, the next position gets
    no candidates. Placing vertex p on node x takes one free neighbour
    from the images that neighbour x, and one unplaced neighbour from the
    vertices adjacent to p, whose images all neighbour x; so only p itself
    and the placed vertices not adjacent to p can newly fall short, and
    only they are checked (`EmbeddingOrder.pending`). No vertex was short
    when the position before was filled, so this finds every shortfall a
    check of all placed vertices would.

    Exhaustive. Each filter is a necessary condition: a node outside p's
    candidates, or a placement that leaves some q short of free
    neighbours, extends no embedding of the vertices placed so far, since
    an embedding is injective, maps the edges between p and placed
    vertices onto edges, and maps the neighbours of each vertex injectively
    onto neighbours of its image. So every prefix of an embedding passes
    the filters at each position. Every candidate at every position is
    tried before the search backtracks, so it reaches every assignment
    that passes them, each embedding's prefixes included, and each edge of
    a is checked when its later end is placed, so a full assignment it
    reaches is an embedding. A None image within `limit` steps therefore
    proves that no embedding exists; the order decides only how early the
    pruning bites.
    """
    if a.num_edges > h.num_edges:
        return None, 0
    adj = [0] * h.n
    for u, v in h.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return embed_masks(embedding_order(a), adj, limit)


def is_subgraph_placement(inst: TmpInstance) -> TokenPlacement | None:
    """A placement realizing every connection at once, or None.

    Backtracking embedding of the algorithm graph into the hardware graph;
    dummy tokens fill the leftover nodes in ascending order.
    """
    image, _ = embed_within(inst.algorithm, inst.hardware)
    if image is None:
        return None
    used = set(image)
    free = [i for i in range(inst.hardware.n) if i not in used]
    return TokenPlacement(tuple(image + free))
