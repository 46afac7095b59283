"""Incremental evaluation engine for the scheduler inner loops.

The HIOS schedulers are *evaluation-bound*: almost all of their time is
spent pricing candidate schedules that differ from an already-priced
schedule in one small, known way.  The reference implementations
(:func:`repro.core.list_schedule.list_schedule_latency` and
:func:`repro.core.evaluator.evaluate_schedule`) re-simulate the entire
schedule from scratch for every candidate; this module exploits the
known delta instead — the engineering discipline IOS (Ding et al.,
MLSys'21) applies to its DP states, applied to our three inner loops:

:class:`PrefixReplayer`
    Incremental list scheduling.  Across the ``M`` GPU candidates for
    one HIOS-LP path — and across the moves of one operator in the
    local-search pass — only the assignment of a known set of
    *varying* operators changes.  List scheduling processes operators
    in a fixed priority order and operator ``v``'s placement reads only
    (a) the assignment of ``v`` and its predecessors and, under the
    sender-blocking model, (b) the assignments of the successors of
    every operator processed so far.  Hence the simulated prefix up to
    the first operator that reads a varying assignment is *identical
    for every candidate*: :meth:`PrefixReplayer.snapshot` simulates it
    once and checkpoints ``(finish, arrival, gpu_free, latency)``;
    :meth:`PrefixReplayer.replay` re-simulates only the suffix.

:class:`StageGraphEvaluator`
    Reusable stage-graph evaluation for Alg. 2.  A ``parallelize``
    window candidate merges ``p+1`` consecutive singleton stages of one
    GPU into one stage; every other stage, every edge classification
    (chain / local / remote) and every sorted send order is unchanged.
    The evaluator builds those structures once per schedule and prices
    each candidate by running the forward stage DP with a small
    *window-merge delta* (a representative-node remap of the merged
    stages) instead of reconstructing the stage graph per candidate as
    ``evaluate_schedule`` does.

    Internally the evaluator stores the stage graph in a
    **struct-of-arrays layout** (DESIGN.md §14): flat int-indexed
    Python lists hold the stage durations, the per-GPU sequential
    chains and the flattened CSR edge lists (local targets, remote
    targets + transfer costs, per-source deduplicated successor sets),
    and the forward DP is a topological sweep over them — no per-stage
    dicts, sets or string keys in the inner loop.  A window candidate adjusts
    the committed in-degree array incrementally around the merged
    members instead of re-deriving it from every edge.

:func:`soa_latency`
    One-shot SoA evaluation of a committed schedule — the same floats
    as :func:`repro.core.evaluator.evaluate_schedule`, produced by the
    list sweep (used by the schedulers' final evaluations when
    ``fast=True``).

All paths are differentially tested bit-identical — latencies *and*
schedules — against the retained reference implementations
(``tests/core/test_fasteval.py``); the schedulers expose
``fast=False`` to fall back to the references at runtime.
:class:`EvalCounters` makes the win observable through
``ScheduleResult.stats``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from ..costmodel.profile import CostProfile
from .graph import OpGraph
from .schedule import Schedule, ScheduleError, Stage

__all__ = ["EvalCounters", "PrefixReplayer", "StageGraphEvaluator", "soa_latency"]


@dataclass
class EvalCounters:
    """Observable counters for the incremental engine.

    Attributes
    ----------
    evals:
        Full from-scratch evaluations: prefix simulations of the list
        scheduler plus stage-graph (re)builds and full DP runs.
    suffix_replays:
        List-schedule queries answered by replaying only the suffix
        after a :meth:`PrefixReplayer.snapshot` checkpoint.
    window_delta_evals:
        Alg. 2 window candidates priced via a stage-graph merge delta
        instead of a full reconstruction.
    soa_evals:
        Stage-DP runs answered by the struct-of-arrays sweep (committed
        evaluations plus window deltas plus :func:`soa_latency` calls).
    cache_hits:
        ``CostProfile.stage_time`` memo hits observed during the run
        (filled in by the schedulers from the profile's counter).
    """

    evals: int = 0
    suffix_replays: int = 0
    window_delta_evals: int = 0
    soa_evals: int = 0
    cache_hits: int = 0

    def to_stats(self) -> dict[str, int]:
        return {
            "evals": self.evals,
            "suffix_replays": self.suffix_replays,
            "window_delta_evals": self.window_delta_evals,
            "soa_evals": self.soa_evals,
            "cache_hits": self.cache_hits,
        }


class PrefixReplayer:
    """Prefix-state snapshotting for the temporal list scheduler.

    Semantically equivalent to calling
    :func:`~repro.core.list_schedule.list_schedule_latency` per
    candidate; bit-identical because the simulation below performs the
    exact float operations of the reference, in the same order.

    Usage::

        rp = PrefixReplayer(graph, num_gpus, send_blocking, gpu_speeds)
        rp.snapshot(order, assignment, varying=path_vertices)
        for gpu in range(num_gpus):
            ...mutate assignment of the varying operators...
            latency = rp.replay(assignment)

    **Snapshot-reuse invariant.**  A checkpoint taken at boundary ``k``
    is valid for any assignment that differs from the snapshot-time one
    only on ``varying``: processing ``order[i]`` reads the assignments
    of ``order[i]`` itself, of its predecessors, and — sender-blocking
    only — the successors of ``order[i]``; the boundary is the first
    position whose processing reads a varying operator (the varying
    operator's own position, or under sender blocking the position of
    any of its predecessors, whichever comes first).

    **Int lowering, no-restore replay.**  The simulation state lives in
    int-indexed flat lists — operator ids instead of names, a per-edge
    arrival slot instead of an ``(u, v)``-keyed dict — and a replay
    writes into the shared ``finish`` / ``arrival`` buffers without
    restoring them afterwards.  That is sound because every value a
    replay reads was written either by the same replay or by the
    prefix: the order is topological, so ``finish[u]`` is rewritten
    before any read; and an ``arrival`` slot ``(u, v)`` is read only
    when the current assignment splits ``u`` and ``v``, which is
    exactly the condition under which processing ``u`` (this replay if
    ``u`` is in the suffix) rewrote it.  A prefix operator cannot have
    a varying successor — the boundary sits at or before every
    predecessor of a varying operator under blocking — so prefix-written
    slots stay valid across candidates.  Stale values from earlier
    replays are therefore never observed.
    """

    def __init__(
        self,
        graph: OpGraph,
        num_gpus: int,
        send_blocking: bool = True,
        gpu_speeds: Sequence[float] | None = None,
        counters: EvalCounters | None = None,
    ) -> None:
        self._num_gpus = num_gpus
        self._blocking = send_blocking
        self._speeds: list[float] | None = (
            list(gpu_speeds) if gpu_speeds is not None else None
        )
        self.counters = counters if counters is not None else EvalCounters()
        names = graph.names
        self._names: list[str] = names
        index = {v: i for i, v in enumerate(names)}
        self._index: dict[str, int] = index
        n = len(names)
        self._n = n
        # successor CSR in the reference's deterministic send order
        # (sorted consumer names); the CSR position is the edge id that
        # addresses the flat per-edge arrival buffer
        sptr = [0]
        sdst: list[int] = []
        sw: list[float] = []
        edge_id: dict[tuple[str, str], int] = {}
        for v in names:
            for s in sorted(graph.successors(v)):
                edge_id[(v, s)] = len(sdst)
                sdst.append(index[s])
                sw.append(graph.transfer(v, s))
            sptr.append(len(sdst))
        self._sptr = sptr
        self._sdst = sdst
        self._sw = sw
        # predecessor CSR carrying each edge's transfer weight and its
        # arrival-slot id
        pptr = [0]
        psrc: list[int] = []
        pw: list[float] = []
        pedge: list[int] = []
        for v in names:
            for u in graph.predecessors(v):
                psrc.append(index[u])
                pw.append(graph.transfer(u, v))
                pedge.append(edge_id[(u, v)])
            pptr.append(len(psrc))
        self._pptr = pptr
        self._psrc = psrc
        self._pw = pw
        self._pedge = pedge
        self._cost: list[float] = [graph.cost(v) for v in names]
        self._num_edges = len(sdst)
        # checkpoint state (int-indexed)
        self._order_ids: list[int] = []
        self._k = 0
        self._assign: list[int] = [-1] * n
        self._varying: list[tuple[int, str]] = []
        self._finish: list[float] = [0.0] * n
        self._arrival: list[float] = [0.0] * self._num_edges
        self._gpu_free: list[float] = [0.0] * num_gpus
        self._latency = 0.0

    # ------------------------------------------------------------------
    def _simulate(
        self,
        assign: list[int],
        order: list[int],
        start: int,
        stop: int,
        finish: list[float],
        arrival: list[float],
        gpu_free: list[float],
        latency: float,
    ) -> float:
        """Exact mirror of ``list_schedule_latency``'s inner loop over
        ``order[start:stop]``, mutating the carried state in place.
        Performs the reference's float operations in the reference's
        order — only the indexing is lowered to ints."""
        blocking = self._blocking
        speeds = self._speeds
        pptr = self._pptr
        psrc = self._psrc
        pw = self._pw
        pedge = self._pedge
        sptr = self._sptr
        sdst = self._sdst
        sw = self._sw
        cost = self._cost
        for i in range(start, stop):
            v = order[i]
            g = assign[v]
            t = gpu_free[g]
            for pi in range(pptr[v], pptr[v + 1]):
                u = psrc[pi]
                gu = assign[u]
                if gu < 0:
                    continue  # still unscheduled in this iteration
                if gu == g:
                    ready = finish[u]
                elif blocking:
                    ready = arrival[pedge[pi]]
                else:
                    ready = finish[u] + pw[pi]
                if ready > t:
                    t = ready
            speed = 1.0 if speeds is None else speeds[g]
            end = t + cost[v] / speed
            finish[v] = end
            if blocking:
                cursor = end
                for si in range(sptr[v], sptr[v + 1]):
                    gs = assign[sdst[si]]
                    if gs < 0 or gs == g:
                        continue
                    cursor += sw[si]
                    arrival[si] = cursor
                gpu_free[g] = cursor
                if cursor > latency:
                    latency = cursor
            else:
                gpu_free[g] = end
            if end > latency:
                latency = end
        return latency

    def prefix_boundary(self, order: Sequence[str], varying: Iterable[str]) -> int:
        """First position of ``order`` whose processing reads the
        assignment of any operator in ``varying``."""
        positions = {v: i for i, v in enumerate(order)}
        names = self._names
        pptr = self._pptr
        psrc = self._psrc
        k = len(order)
        for v in varying:
            pos = positions.get(v)
            if pos is None:
                continue
            if pos < k:
                k = pos
            if self._blocking:
                # a predecessor issues (or skips) a blocking send to v
                # depending on v's assignment
                vi = self._index[v]
                for pi in range(pptr[vi], pptr[vi + 1]):
                    pu = positions.get(names[psrc[pi]])
                    if pu is not None and pu < k:
                        k = pu
        return k

    def snapshot(
        self,
        order: Sequence[str],
        assignment: Mapping[str, int],
        varying: Iterable[str],
    ) -> int:
        """Simulate the candidate-invariant prefix once and checkpoint
        the state; returns the boundary index."""
        varying = list(varying)
        k = self.prefix_boundary(order, varying)
        index = self._index
        self._order_ids = [index[v] for v in order]
        self._k = k
        assign = [-1] * self._n
        for v, g in assignment.items():
            assign[index[v]] = g
        self._assign = assign
        self._varying = [(index[v], v) for v in varying]
        self._finish = [0.0] * self._n
        self._arrival = [0.0] * self._num_edges
        self._gpu_free = [0.0] * self._num_gpus
        self.counters.evals += 1
        self._latency = self._simulate(
            assign, self._order_ids, 0, k, self._finish, self._arrival,
            self._gpu_free, 0.0,
        )
        return k

    def replay(self, assignment: Mapping[str, int]) -> float:
        """Latency of list-scheduling the full order under
        ``assignment``, re-simulating only the suffix after the last
        :meth:`snapshot`.

        Per the snapshot-reuse invariant, ``assignment`` may differ
        from the snapshot-time mapping only on the ``varying``
        operators — only their entries are re-read here.
        """
        self.counters.suffix_replays += 1
        assign = self._assign
        get = assignment.get
        for vi, name in self._varying:
            g = get(name)
            assign[vi] = -1 if g is None else g
        gpu_free = list(self._gpu_free)
        return self._simulate(
            assign, self._order_ids, self._k, len(self._order_ids),
            self._finish, self._arrival, gpu_free, self._latency,
        )


class StageGraphEvaluator:
    """Reusable stage-graph evaluation for the Alg. 2 window sweep.

    Builds the stage graph — operator-to-stage map, per-stage chain /
    local / remote edge lists with the deterministic ``(producer,
    consumer)`` send order, and stage durations — once per schedule as
    flat int-indexed lists (a struct-of-arrays layout), then prices each
    window candidate with :meth:`try_merge` by running the forward DP
    under a merge delta.  Produces exactly the floats of
    :func:`repro.core.evaluator.evaluate_schedule`: every start time is
    a pure max-merge over its incoming constraints and every send
    cursor accumulates in the same deterministic ``(producer,
    consumer)`` order, so the sweep's processing order cannot change a
    single bit.
    """

    def __init__(
        self,
        profile: CostProfile,
        schedule: Schedule,
        counters: EvalCounters | None = None,
    ) -> None:
        self.counters = counters if counters is not None else EvalCounters()
        self._profile = profile
        self._blocking = profile.send_blocking
        graph: OpGraph = profile.graph
        stages = schedule.all_stages()
        self._stages = stages
        n = len(stages)
        self._n = n

        op_stage: dict[str, int] = {}
        for idx, st in enumerate(stages):
            for op in st.ops:
                op_stage[op] = idx

        by_gpu: dict[int, list[int]] = {}
        for idx, st in enumerate(stages):
            by_gpu.setdefault(st.gpu, []).append(idx)
        self._by_gpu = by_gpu
        chain_next = [-1] * n  # per-GPU chain successor, -1 = end of chain
        for chain in by_gpu.values():
            for a, b in zip(chain, chain[1:]):
                chain_next[a] = b

        local_sets: list[set[int]] = [set() for _ in range(n)]
        remote_lists: list[list[tuple[float, int, str, str]]] = [[] for _ in range(n)]
        for u, v, w in graph.edges():
            su, sv = op_stage[u], op_stage[v]
            if su == sv:
                raise ScheduleError(
                    f"dependent operators {u!r} -> {v!r} share a stage"
                )
            if stages[su].gpu == stages[sv].gpu:
                local_sets[su].add(sv)
            else:
                remote_lists[su].append((w, sv, u, v))
        for lst in remote_lists:
            # deterministic send order: producer then consumer name
            lst.sort(key=lambda e: (e[2], e[3]))
        self._local: list[tuple[int, ...]] = [tuple(s) for s in local_sets]
        self._remote: list[tuple[tuple[float, int, str, str], ...]] = [
            tuple(lst) for lst in remote_lists
        ]

        # per-source dedup'd target list (all constraint kinds) and the
        # reverse map used to find sources with an edge into a window
        succ_unique: list[tuple[int, ...]] = []
        rev_sources: list[set[int]] = [set() for _ in range(n)]
        for s in range(n):
            targets = set(local_sets[s])
            targets.update(sv for _w, sv, _u, _v in remote_lists[s])
            nxt = chain_next[s]
            if nxt >= 0:
                targets.add(nxt)
            succ_unique.append(tuple(targets))
            for t in targets:
                rev_sources[t].add(s)
        self._succ_unique = succ_unique
        self._rev_sources: list[tuple[int, ...]] = [tuple(s) for s in rev_sources]

        # ---- struct-of-arrays layout (DESIGN.md §14) -----------------
        # Int-indexed flat lists: stage times, per-GPU chain successors,
        # flattened CSR edge lists (remote targets + transfer costs,
        # local targets, per-source deduplicated successors) and
        # committed in-degrees — scalar indexing into lists is what the
        # tight Kahn loop wants.
        self._dur_l = [profile.stage_time(st.ops, gpu=st.gpu) for st in stages]
        self._chain_l = chain_next
        rptr = [0]
        rdst: list[int] = []
        rw: list[float] = []
        lptr = [0]
        ldst: list[int] = []
        sptr = [0]
        sdst: list[int] = []
        for s in range(n):
            for w, sv, _u, _v in self._remote[s]:
                rw.append(w)
                rdst.append(sv)
            rptr.append(len(rdst))
            ldst.extend(self._local[s])
            lptr.append(len(ldst))
            sdst.extend(succ_unique[s])
            sptr.append(len(sdst))
        indeg0 = [0] * n
        for t in sdst:
            indeg0[t] += 1
        self._rw_l = rw
        self._rdst_l = rdst
        self._rptr_l = rptr
        self._ldst_l = ldst
        self._lptr_l = lptr
        self._sdst_l = sdst
        self._sptr_l = sptr
        self._indeg0_l = indeg0
        self._identity: list[int] = list(range(n))

    # ------------------------------------------------------------------
    def evaluate(self) -> float:
        """Latency of the committed schedule (full DP, no delta).

        Raises :class:`ScheduleError` when the stage graph is cyclic.
        """
        self.counters.evals += 1
        latency = self._run_dp(None)
        if latency is None:
            raise ScheduleError("stage graph contains a cycle")
        return latency

    def try_merge(self, gpu: int, pos: int, p: int, group: tuple[str, ...]) -> float | None:
        """Latency of the candidate merging the ``p + 1`` consecutive
        singleton stages at positions ``pos .. pos + p`` of ``gpu``'s
        stage list into one stage executing ``group``.

        Returns ``None`` when the merged stage graph is cyclic (the
        candidate Alg. 2 must reject).  The committed structures are
        not modified.
        """
        members = self._by_gpu[gpu][pos : pos + p + 1]
        self.counters.window_delta_evals += 1
        return self._run_dp((members, group, gpu))

    # ------------------------------------------------------------------
    def _run_dp(
        self, merge: tuple[list[int], tuple[str, ...], int] | None
    ) -> float | None:
        """Forward stage DP over the struct-of-arrays layout, optionally
        under a window-merge delta.

        The merged stages are contracted onto a representative node
        (the first member); edge targets are remapped through an int
        array at use, which is exactly the stage graph
        ``evaluate_schedule`` would rebuild for the candidate.  Start
        times are pure max-merges and per-source send cursors accumulate
        in the committed sorted order, so the values are independent of
        the sweep's processing order — bit-identical to the reference.
        """
        n = self._n
        blocking = self._blocking
        dur = self._dur_l
        chain = self._chain_l
        rw = self._rw_l
        rdst = self._rdst_l
        rptr = self._rptr_l
        ldst = self._ldst_l
        lptr = self._lptr_l
        sdst = self._sdst_l
        sptr = self._sptr_l
        self.counters.soa_evals += 1

        rep = -1
        rep_of = self._identity
        merged_dur = 0.0
        merged_rw: list[float] = []
        merged_rt: list[int] = []
        merged_local: tuple[int, ...] = ()
        merged_chain = -1
        override_targets: dict[int, tuple[int, ...]] = {}
        active = n
        indeg = list(self._indeg0_l)
        if merge is not None:
            members, group, gpu = merge
            rep = members[0]
            active = n - (len(members) - 1)
            rep_of = list(self._identity)
            for m in members:
                rep_of[m] = rep
            merged_dur = self._profile.stage_time(group, gpu=gpu)
            loc: set[int] = set()
            rem: list[tuple[float, int, str, str]] = []
            for m in members:
                loc.update(self._local[m])
                rem.extend(self._remote[m])
            rem.sort(key=lambda e: (e[2], e[3]))
            merged_rw = [e[0] for e in rem]
            merged_rt = [e[1] for e in rem]
            merged_local = tuple(loc)
            merged_chain = chain[members[-1]]
            # The group passed the pairwise-independence check, so no
            # edge runs between two members: every merged edge target
            # lies outside the window and needs no remap.
            affected: set[int] = set()
            for m in members:
                affected.update(self._rev_sources[m])
            affected.difference_update(members)
            mt = set(merged_local)
            mt.update(merged_rt)
            if merged_chain >= 0:
                mt.add(merged_chain)
            merged_targets = tuple(mt)
            override_targets[rep] = merged_targets
            # Incremental in-degrees: drop the members' committed
            # contributions, add the merged node's dedup'd target set,
            # and pin the representative's in-degree to the number of
            # outside sources with an edge into the window (remap can
            # collapse several member targets of one source into the
            # representative, which must then count once).  Skipped
            # members keep garbage in-degrees — they are never readied.
            for m in members:
                for i in range(sptr[m], sptr[m + 1]):
                    indeg[sdst[i]] -= 1
            for t in merged_targets:
                indeg[t] += 1
            indeg[rep] = len(affected)
            for s in affected:
                seen = {rep_of[sdst[i]] for i in range(sptr[s], sptr[s + 1])}
                override_targets[s] = tuple(seen)

        start = [0.0] * n
        # rep_of[s] == s keeps non-members and the representative,
        # excluding the contracted members (identity when not merging)
        ready = [s for s in range(n) if indeg[s] == 0 and rep_of[s] == s]
        done = 0
        latency = 0.0
        merging = merge is not None
        while ready:
            s = ready.pop()
            done += 1
            if s == rep:
                fin = start[s] + merged_dur
                if blocking:
                    cursor = fin
                    for i, w in enumerate(merged_rw):
                        cursor += w
                        t = merged_rt[i]
                        if cursor > start[t]:
                            start[t] = cursor
                    comm_done = cursor
                else:
                    for i, w in enumerate(merged_rw):
                        t = merged_rt[i]
                        cand = fin + w
                        if cand > start[t]:
                            start[t] = cand
                    comm_done = fin
                for t in merged_local:
                    if fin > start[t]:
                        start[t] = fin
                if merged_chain >= 0:
                    if comm_done > start[merged_chain]:
                        start[merged_chain] = comm_done
            else:
                fin = start[s] + dur[s]
                if blocking:
                    cursor = fin
                    for i in range(rptr[s], rptr[s + 1]):
                        cursor += rw[i]
                        t = rep_of[rdst[i]]
                        if cursor > start[t]:
                            start[t] = cursor
                    comm_done = cursor
                else:
                    for i in range(rptr[s], rptr[s + 1]):
                        t = rep_of[rdst[i]]
                        cand = fin + rw[i]
                        if cand > start[t]:
                            start[t] = cand
                    comm_done = fin
                for i in range(lptr[s], lptr[s + 1]):
                    t = rep_of[ldst[i]]
                    if fin > start[t]:
                        start[t] = fin
                c = chain[s]
                if c >= 0:
                    t = rep_of[c]
                    if comm_done > start[t]:
                        start[t] = comm_done
            if fin > latency:
                latency = fin
            if comm_done > latency:
                latency = comm_done
            # in-degree decrement over the per-source unique target set
            # (max-merges above already applied the start relaxations)
            if merging:
                tt = override_targets.get(s)
                if tt is not None:
                    for t in tt:
                        indeg[t] -= 1
                        if indeg[t] == 0:
                            ready.append(t)
                else:
                    for i in range(sptr[s], sptr[s + 1]):
                        t = sdst[i]
                        indeg[t] -= 1
                        if indeg[t] == 0:
                            ready.append(t)
            else:
                for i in range(sptr[s], sptr[s + 1]):
                    t = sdst[i]
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        ready.append(t)
        if done != active:
            return None  # cyclic stage graph
        return latency

    # ------------------------------------------------------------------
    def stages_on(self, gpu: int) -> list[Stage]:
        """Committed stage list of one GPU (parallelize's sweep view)."""
        return [self._stages[i] for i in self._by_gpu.get(gpu, [])]


def soa_latency(
    profile: CostProfile,
    schedule: Schedule,
    validate: bool = False,
    counters: EvalCounters | None = None,
) -> float:
    """One-shot latency of ``schedule`` via the struct-of-arrays sweep.

    Bit-identical to
    ``evaluate_schedule(profile, schedule, validate).latency`` — the
    schedulers' final evaluations route here when ``fast=True`` and
    fall back to the reference under ``fast=False``.  Raises
    :class:`ScheduleError` on an infeasible schedule exactly like the
    reference.
    """
    if validate:
        schedule.validate(profile.graph)
    return StageGraphEvaluator(profile, schedule, counters=counters).evaluate()
