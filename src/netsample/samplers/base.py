"""Shared sampler machinery: config, crawl state, leaderboard, results."""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import PartialSampleError, ValidationError, is_integer, is_real, require
from ..graph import csr_rows

# the walker jumps back into the sample this often; the protocol never
# specifies sink handling, so the constant is recorded in every result
RESTART_PROB = 0.15
STEP_BUDGET_FACTOR = 1000


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs shared by all samplers; criterion samplers read most of them.

    A config checks its fields when it is built, so one that exists is
    valid. Only the two bounds that need the graph wait for ``validate(n)``:
    ``target_size <= n`` and a seed node in ``0..n-1``.

    ``alpha=None`` resolves at run time to 0 for undirected graphs and 0.5
    for directed ones. ``seed_nodes`` holds at most one starting node; empty
    means a random start. ``node2vec_p`` and ``node2vec_q`` are the return
    and in-out parameters of the node2vec walk.
    """

    target_size: int
    rw_init_fraction: float = 0.2
    leaderboard_capacity: int = 100
    alpha: float | None = None
    exploration_p: float = 0.1
    damping: float = 0.85
    seed_nodes: tuple[int, ...] = ()
    rng_seed: int = 0
    rescore_on_pop: bool = False
    node2vec_p: float = 2.0
    node2vec_q: float = 0.5

    INT_FIELDS = ("target_size", "leaderboard_capacity", "rng_seed")
    REAL_FIELDS = (
        "rw_init_fraction", "alpha", "exploration_p", "damping", "node2vec_p", "node2vec_q"
    )

    def __post_init__(self):
        seeds = self.seed_nodes
        ok = isinstance(seeds, (tuple, list, np.ndarray)) and all(map(is_integer, seeds))
        require("seed_nodes", seeds, "a sequence of integers", ok)
        object.__setattr__(self, "seed_nodes", tuple(int(s) for s in seeds))
        for name in self.INT_FIELDS:
            value = getattr(self, name)
            require(name, value, "an integer", is_integer(value))
        require("target_size", self.target_size, "an integer >= 1", self.target_size >= 1)
        require("rng_seed", self.rng_seed, "an integer >= 0", self.rng_seed >= 0)
        for name in self.REAL_FIELDS:
            value = getattr(self, name)
            ok = is_real(value) or (name == "alpha" and value is None)
            require(name, value, "a real number", ok)
        rescore = self.rescore_on_pop
        require("rescore_on_pop", rescore, "true or false", isinstance(rescore, (bool, np.bool_)))
        if len(self.seed_nodes) > 1:
            raise ValidationError(f"at most one seed node allowed, got {list(self.seed_nodes)}")
        if self.leaderboard_capacity < 1:
            raise ValidationError("leaderboard capacity must be >= 1")
        if not 0.0 < self.rw_init_fraction <= 1.0:
            raise ValidationError("rw_init_fraction must lie in (0, 1]")
        if self.alpha is not None and not 0.0 <= self.alpha <= 1.0:
            raise ValidationError("alpha must lie in [0, 1]")
        if not 0.0 <= self.exploration_p <= 1.0:
            raise ValidationError("exploration_p must lie in [0, 1]")
        if not 0.0 <= self.damping < 1.0:
            raise ValidationError("damping must lie in [0, 1)")
        if not (self.node2vec_p > 0 and self.node2vec_q > 0):
            raise ValidationError("node2vec_p and node2vec_q must be positive")

    def validate(self, n: int) -> None:
        """Check the fields that the graph's node count ``n`` bounds."""
        if self.target_size > n:
            raise ValidationError(f"target size {self.target_size} not in 1..{n}")
        if self.seed_nodes and not 0 <= self.seed_nodes[0] < n:
            raise ValidationError(f"seed node {self.seed_nodes[0]} not in 0..{n - 1}")

    def resolved_alpha(self, directed: bool) -> float:
        if self.alpha is not None:
            return float(self.alpha)
        return 0.5 if directed else 0.0

    def echo(self, **extra) -> dict:
        d = asdict(self)
        d["seed_nodes"] = list(self.seed_nodes)
        d["restart_prob"] = RESTART_PROB
        d["step_budget_factor"] = STEP_BUDGET_FACTOR
        d.update(extra)
        return d


@dataclass
class SampleResult:
    """Ordered sampled nodes plus provenance and counters."""

    nodes: list[int]
    tags: list[str]
    counters: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.nodes) != len(set(self.nodes)):
            raise ValidationError("sampled nodes must be distinct")
        if len(self.tags) != len(self.nodes):
            raise ValidationError("one provenance tag per node required")

    def to_json(self) -> str:
        return json.dumps(
            {
                "nodes": [int(v) for v in self.nodes],
                "tags": self.tags,
                "counters": self.counters,
                "config": self.config,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "SampleResult":
        d = json.loads(text)
        return cls(nodes=d["nodes"], tags=d["tags"], counters=d["counters"], config=d["config"])

    def save(self, json_path, nodes_path=None) -> None:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")
        if nodes_path is not None:
            with open(nodes_path, "w", encoding="utf-8") as fh:
                for v in self.nodes:
                    fh.write(f"{int(v)}\n")


class Leaderboard:
    """Bounded best-score buffer of border candidates.

    Pop returns the highest score; ties go to the earliest insertion. When
    full, the lowest score is evicted (ties: the latest insertion goes). A
    score changes only when its node is offered again, which keeps the
    node's insertion order; the owner decides when scores are refreshed.

    Two binary heaps find the best and the worst entry in O(log capacity):
    the best-heap is keyed by ``(-score, insertion_step)``, the worst-heap by
    ``(score, -insertion_step)``. A changed score pushes fresh heap entries
    and leaves the old ones behind; removals leave theirs behind too. A heap
    entry is live only while its version is the node's current one, and dead
    entries are skipped when they reach the top. Both heaps are rebuilt from
    the live entries once either holds ``COMPACT_FACTOR * capacity`` items.
    """

    COMPACT_FACTOR = 4

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self._limit = self.COMPACT_FACTOR * self.capacity
        # node -> [score, insertion_step, version]
        self._entries: dict[int, list] = {}
        self._best: list[tuple] = []  # (-score, step, node, version)
        self._worst: list[tuple] = []  # (score, -step, node, version)
        self._steps = 0
        self._versions = 0
        self.evictions = 0

    def __len__(self):
        return len(self._entries)

    def __contains__(self, node):
        return node in self._entries

    def nodes(self) -> list[int]:
        return list(self._entries)

    def entries(self) -> list[tuple[int, float, int]]:
        return [(node, e[0], e[1]) for node, e in self._entries.items()]

    def _push(self, node: int, ent: list) -> None:
        self._versions += 1
        ent[2] = self._versions
        heapq.heappush(self._best, (-ent[0], ent[1], node, ent[2]))
        heapq.heappush(self._worst, (ent[0], -ent[1], node, ent[2]))
        if len(self._best) > self._limit or len(self._worst) > self._limit:
            self._best = [(-e[0], e[1], v, e[2]) for v, e in self._entries.items()]
            self._worst = [(e[0], -e[1], v, e[2]) for v, e in self._entries.items()]
            heapq.heapify(self._best)
            heapq.heapify(self._worst)

    def _pop_live(self, heap: list) -> int:
        """Pop dead entries off ``heap``, then the live top; return its node."""
        while True:
            _, _, node, version = heapq.heappop(heap)
            ent = self._entries.get(node)
            if ent is not None and ent[2] == version:
                del self._entries[node]
                return node

    def offer(self, node: int, score: float) -> None:
        ent = self._entries.get(node)
        if ent is not None:
            # fresher score, original insertion order
            if ent[0] != score:
                ent[0] = score
                self._push(node, ent)
            return
        self._steps += 1
        ent = self._entries[node] = [score, self._steps, 0]
        self._push(node, ent)
        if len(self._entries) > self.capacity:
            self._pop_live(self._worst)
            self.evictions += 1

    def pop_best(self) -> int | None:
        if not self._entries:
            return None
        return int(self._pop_live(self._best))

    def discard(self, node: int) -> None:
        self._entries.pop(node, None)


@dataclass
class SampleState:
    """The record of a sample as it grows, for every sampler.

    ``add`` admits a node with its tag; ``partial`` and ``result`` turn the
    record into the ``PartialSampleError`` or the ``SampleResult`` a sampler
    ends with. A criterion crawl also keeps its ``leaderboard`` here;
    ``in_sample_indegree`` (TCEC), ``delta`` and ``dangling_members`` (TCPR)
    belong to those samplers.
    """

    members: list[int] = field(default_factory=list)
    tags: list[str] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    member_mask: np.ndarray = None
    in_sample_indegree: np.ndarray = None
    leaderboard: Leaderboard = None
    delta: np.ndarray = None  # TCPR only
    dangling_members: list[int] = field(default_factory=list)

    @classmethod
    def empty(cls, n: int, capacity: int | None = None, **own) -> "SampleState":
        """A state with no members, a leaderboard of ``capacity`` if one is
        given; ``own`` sets the sampler's own fields."""
        board = None if capacity is None else Leaderboard(capacity)
        return cls(member_mask=np.zeros(n, dtype=bool), leaderboard=board, **own)

    @property
    def k(self) -> int:
        return len(self.members)

    def add(self, node: int, tag: str) -> None:
        self.members.append(node)
        self.tags.append(tag)
        self.member_mask[node] = True

    def partial(self, message: str) -> PartialSampleError:
        return PartialSampleError(message, self.members, self.tags, self.counters)

    def result(self, cfg: SamplerConfig, name: str) -> SampleResult:
        config = cfg.echo(sampler=name)
        return SampleResult(list(self.members), self.tags, self.counters, config)


def start(g, cfg: SamplerConfig):
    """Check ``cfg`` against ``g``; return the sampler's random generator."""
    cfg.validate(g.n)
    return np.random.default_rng(cfg.rng_seed)


def neighborhood(g, node: int) -> np.ndarray:
    """Distinct in- and out-neighbors of ``node`` in ascending order,
    excluding ``node`` itself.

    An undirected graph's in-list equals its out-list, which is sorted and
    distinct already, so only a directed graph needs the merge: each list is
    distinct, so after one sort an id repeats at most once, next to itself.
    """
    out_idx, _ = g.out_neighbors(node)
    # only a self-loop puts ``node`` in its own lists
    if not g.directed:
        return out_idx[out_idx != node] if g.has_self_loop else out_idx.copy()
    both = np.concatenate((out_idx, g.in_neighbors(node)[0]))
    both.sort()
    if g.has_self_loop:
        both = both[both != node]
    keep = np.empty(both.size, dtype=bool)
    keep[:1] = True
    np.not_equal(both[1:], both[:-1], out=keep[1:])
    return both[keep]


def uniform_step(g, rng, prev, current):
    """The uniform random walk's step: a uniformly chosen out-neighbor."""
    out_idx, _ = g.out_neighbors(current)
    return int(out_idx[int(rng.integers(out_idx.size))])


def can_leave(g, sampled, member_mask, takes=None) -> bool:
    """Whether some node of ``sampled`` has an out-edge that a walk step can
    take to a node outside ``member_mask``.

    ``takes(w)`` flags the out-edges the step can take from their weights
    ``w``; None means every out-edge.
    """
    _, pos = csr_rows(g._out_indptr, np.asarray(sampled, dtype=np.int64))
    leave = ~member_mask[g._out_dst[pos]]
    if takes is not None:
        leave &= takes(g._out_w[pos])
    return bool(leave.any())


def walk_until_new(
    g, rng, current, sampled, member_mask, budget, step=uniform_step, prev=None, takes=None
):
    """Advance a walk until it reaches an unsampled node.

    Each step from a node with out-edges first draws a restart with
    probability ``RESTART_PROB``, then asks ``step(g, rng, prev, current)``
    for the next node; ``None`` forces a restart. A sink restarts with no
    draw. A restart jumps to a uniformly chosen already-sampled node and
    forgets ``prev``. Returns ``(node, steps_used, prev)``, with ``prev`` the
    node the walk left to reach ``node``, or ``(None, steps_used, prev)``
    when the budget runs out.

    ``current`` is sampled and the walk stands only on sampled nodes until
    it returns. So once a call has taken ``len(sampled)`` steps without a
    new node, it asks ``can_leave`` once, with the edges ``takes`` says
    ``step`` can take. If no sampled node has such an edge out of the
    sample, it returns ``(None, budget, prev)`` at once: the node and step
    count of a walk that spends its budget.
    """
    out_indptr = g._out_indptr
    steps = 0
    check_at = len(sampled)
    while steps < budget:
        if steps == check_at and not can_leave(g, sampled, member_mask, takes):
            return None, budget, prev
        steps += 1
        nxt = None
        if out_indptr[current + 1] > out_indptr[current] and rng.random() >= RESTART_PROB:
            nxt = step(g, rng, prev, current)
        if nxt is None:
            prev, current = None, sampled[int(rng.integers(len(sampled)))]
            continue
        prev, current = current, nxt
        if not member_mask[current]:
            return current, steps, prev
    return None, steps, prev


def pick_seed(cfg: SamplerConfig, g, rng) -> int:
    """The configured seed node (validated by ``cfg.validate``), else a random one."""
    if cfg.seed_nodes:
        return cfg.seed_nodes[0]
    return int(rng.integers(g.n))


def run_criterion_crawl(
    g,
    cfg: SamplerConfig,
    state: SampleState,
    sampler_name: str,
    score_fn,
    on_admit,
    step_callback=None,
) -> SampleResult:
    """Shared control flow for the criterion samplers.

    RW-init collects ``ceil(rw_init_fraction * m)`` nodes, then the main loop
    pops the leaderboard top (falling back to one random-walk step when it is
    empty) until ``m`` nodes are sampled. When ``node`` enters the sample,
    ``on_admit(node)`` does the sampler's own bookkeeping and returns the
    distinct unsampled candidates (an integer array) to score. With
    ``rescore_on_pop``, every entry not offered in the latest admission is
    offered again with a fresh score before each pop, so the pop is the
    exact argmax over the leaderboard.
    """
    rng = start(g, cfg)
    m = cfg.target_size
    counters = state.counters
    counters.update(scored_candidates=0, fallback_events=0, rw_steps=0)
    budget = STEP_BUDGET_FACTOR * m
    offered: list[int] = []  # the candidates of the latest admission, scored after it

    def admit(node: int, tag: str) -> None:
        nonlocal offered
        state.add(node, tag)
        state.leaderboard.discard(node)
        cands = on_admit(node)
        if cfg.exploration_p < 1.0:
            # one draw per candidate, in candidate order
            cands = cands[rng.random(cands.size) < cfg.exploration_p]
        counters["scored_candidates"] += cands.size
        offer, offered = state.leaderboard.offer, cands.tolist()
        for cand in offered:
            offer(cand, score_fn(cand))
        if step_callback is not None:
            step_callback(state, node, tag)

    def walk_from(origin: int, exhausted: str) -> int:
        """Walk to an unsampled node; raise once the step budget is spent."""
        node, used, _ = walk_until_new(g, rng, origin, state.members, state.member_mask, budget)
        counters["rw_steps"] += used
        if node is None:
            raise state.partial(f"{exhausted} at {state.k}/{m} nodes")
        return node

    # phase 1: random-walk initialization
    init_size = min(m, max(1, math.ceil(cfg.rw_init_fraction * m)))
    current = pick_seed(cfg, g, rng)
    admit(current, "rw-init")
    while state.k < init_size:
        current = walk_from(current, "rw-init exhausted")
        admit(current, "rw-init")

    # phase 2: criterion-driven growth
    while state.k < m:
        if cfg.rescore_on_pop:
            fresh = set(offered)
            for node in state.leaderboard.nodes():
                if node not in fresh:
                    state.leaderboard.offer(node, score_fn(node))
        node = state.leaderboard.pop_best()
        if node is not None:
            admit(node, "criterion")
            continue
        counters["fallback_events"] += 1
        origin = state.members[int(rng.integers(state.k))]
        admit(walk_from(origin, "graph exhausted"), "fallback")

    counters["leaderboard_evictions"] = state.leaderboard.evictions
    return state.result(cfg, sampler_name)
