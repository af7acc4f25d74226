"""Collective algorithms implemented over point-to-point transport.

These are the real algorithms communication libraries use (paper §2.3):

* ``allreduce_naive`` — every rank sends its tensor to every peer and
  reduces locally; the strawman the paper mentions for large tensors,
  and what runs for small ones.  Below the size rule (:func:`one_round`)
  the process group runs it split in two — the post at issue, the
  receives and :func:`reduce_in_order` at ``wait()`` — and broadcasts
  the same way; its reduce-scatter (:func:`reduced` of the pieces of one
  span) and all-gathers run that way at every size, since their direct
  exchange moves no more bytes than a ring.
* ``allreduce_ring`` — reduce-scatter + allgather ring (NCCL's default),
  2·(p−1) segment transfers per rank, bandwidth-optimal: the one
  AllReduce above the size rule.
* ``broadcast`` / ``reduce`` — binomial trees; ``gather`` / ``scatter``
  — direct sends to and from the root.

The ring and the tree broadcast are written once, as *step machines*
(:func:`ring_steps`, :func:`broadcast_steps`; protocol in
:func:`run_steps`): ``allreduce_ring`` and ``broadcast`` drive one to its
end on the calling thread, and a process group's ``Work`` drives the
same machine from ``wait()`` / ``is_completed()``, its first step posted
at issue.  All functions operate **in place** on a flat numpy array and
take the list of participating global ranks, so sub-groups reuse them
unchanged.  ``tag`` namespaces concurrent collectives.

Hot-path design (paper Figs. 7/8 cost model):

* **Contiguous segments** — buffers are partitioned with
  :func:`partition_spans` into contiguous ``[lo, hi)`` windows, so every
  send is one slice and every reduction is one vectorized numpy ufunc
  call (``np.add(dst, src, out=dst)``).  No index arrays, no
  fancy-indexing gathers, no Python element loops.
* **One memory pass per transferred byte** — the transport's ownership
  contract is *a sent array is not modified until the peer consumed
  it*.  Below :data:`RENDEZVOUS_BYTES` the ring and the broadcast honour
  it the *eager* way, by sending a private copy.  At or above it they
  *lend*: ``hub.send`` gets a view of the collective's own buffer and
  the peer reduces or copies straight out of it (the rendezvous
  protocol of large-message MPI / Gloo / NCCL paths).  A lent region is
  protected by **causality** where the sender's next write to it is
  itself triggered by a message that follows the peer's read (the
  ring's reduce-scatter), and by one zero-byte **completion token** per
  borrowing peer where the buffer outlives the collective (the ring's
  allgather, the broadcast): the borrower sends the token after its
  last read and the lender receives it before the algorithm returns, so
  ``Work.wait()`` still means "this tensor is yours again".  Each
  function's docstring carries its own argument; ``docs/internals.md``
  has the table.
* **Fused average** — ``op="avg"`` (``ReduceOp.AVG``) is a sum plus
  exactly one division by the group size, done by the rank that holds a
  fully reduced segment, on the segment it just reduced and before it
  is circulated — bitwise what a sum followed by ``/= world`` on every
  rank produces, for 1/p of the arithmetic and no extra sweep.
* **Unchunked** — every segment is one message.  On the in-process hub
  a pipelined chunk is one more view handed over, and unchunked
  transfers measured equal or faster (``docs/performance.md``,
  "Measured and not kept").

Complexity notes use the paper's α–β model: α is per-message latency,
β is per-byte transfer time, *n* is the buffer's byte size and *p* the
number of participating ranks.

Thread-safety: every function is written to run on one rank's thread
while peer ranks run the same function concurrently; all shared state
lives in the :class:`~repro.comm.transport.TransportHub` mailboxes.
Per-rank buffers are only touched by their own rank.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Generator, List, Sequence, Tuple

import numpy as np

from repro.comm.transport import Signed, TransportHub

ReduceFn = Callable[..., np.ndarray]
#: A step machine (see :func:`run_steps`).
Steps = Generator[Tuple[object, Sequence[int]], list, object]

#: Collective buffers of at least this many bytes are sent by rendezvous
#: (lent views + completion tokens), smaller ones by eager copy.  256 KiB
#: is where lending overtakes copying on a world-2 large-message
#: AllReduce (docs/performance.md, "Bandwidth path").  Every rank derives
#: the choice from ``buffer.nbytes``, which the signature check already
#: makes them agree on, so the message protocol stays aligned.
RENDEZVOUS_BYTES: int = 256 * 1024


#: ``executing.stalls`` is the receive-stall dict of the collective the
#: calling thread advances: set by ``ProcessGroup._execute`` while
#: telemetry is on, and attached to the collective's record when it is
#: done; absent or None otherwise.
executing = threading.local()


def _recv(hub: TransportHub, me: int, src: int, tag: object, timeout: float | None):
    """``hub.recv`` plus per-source stall attribution.

    While the calling thread executes a collective under telemetry, the
    time spent inside ``recv`` is added to that collective's stall dict
    under the sending rank — the raw signal behind straggler and
    slow-link diagnoses, which the health series fold from the record
    at read.  Otherwise this is a plain ``hub.recv`` plus one attribute
    check.
    """
    stalls = getattr(executing, "stalls", None)
    if stalls is None:
        return hub.recv(me, src, tag, timeout)
    t0 = time.perf_counter()
    payload = hub.recv(me, src, tag, timeout)
    stalls[src] = stalls.get(src, 0.0) + (time.perf_counter() - t0)
    return payload


def _collect(hub: TransportHub, me: int, srcs: Sequence[int], tag: object) -> list:
    """``hub.collect``, its round booked to ``srcs``' receive stalls in
    equal shares, as :func:`_recv` books a message that was there."""
    stalls = getattr(executing, "stalls", None)
    if stalls is None:
        return hub.collect(me, srcs, tag)
    t0 = time.perf_counter()
    posts = hub.collect(me, srcs, tag)
    share = (time.perf_counter() - t0) / len(srcs)
    for src in srcs:
        stalls[src] = stalls.get(src, 0.0) + share
    return posts


def _settle(hub: TransportHub, me: int, tag: object, lend: bool,
            lenders: Sequence[int], borrowers: Sequence[int]) -> Sequence[int]:
    """Return lent regions to their owners: one token per borrowing peer.

    Called after this rank's last read of every ``lenders`` buffer (global
    ranks), it sends each one a token and returns the ``borrowers`` (group
    ranks) whose tokens the steps must take before they end — once every
    one said the same about ours.  Tokens are ordinary (zero-byte)
    messages under ``(tag, "done")``.
    """
    if not lend:
        return ()
    for peer in lenders:
        hub.send(me, peer, (tag, "done"), None)
    return borrowers


def run_steps(steps: Steps, hub: TransportHub, ranks: Sequence[int], me: int,
              timeout: float | None) -> object:
    """Drive a step machine to its end on the calling thread, parking for
    each message it asks for; returns what the machine returned.

    A machine is a generator: it sends what it can, then yields
    ``(tag, srcs)`` — the group ranks whose next message under ``tag``
    it needs — and is resumed with those messages, in ``srcs`` order
    (a ``Signed`` one unwrapped).  A process group drives the same
    machines from ``Work.wait()`` / ``is_completed()`` instead.
    """
    here, got = ranks[me], None
    while True:
        try:
            tag, srcs = steps.send(got)
        except StopIteration as stop:
            return stop.value
        got = [_recv(hub, here, ranks[src], tag, timeout) for src in srcs]
        got = [post.data if type(post) is Signed else post for post in got]


def _write_back(buffer: np.ndarray, flat: np.ndarray) -> None:
    """Land ``flat`` in ``buffer`` when ``buffer.reshape(-1)`` had to copy.

    For a buffer no 1-D view can express (``base.T``) ``flat`` is private
    memory — which is also what gets lent, never the caller's strided
    storage — and the result has to be written through the buffer.
    """
    if not np.may_share_memory(flat, buffer):
        buffer[...] = flat.reshape(buffer.shape)


#: Elementwise reduction operators.  All values are numpy ufuncs so the
#: hot path can reduce **in place** (``fn(dst, src, out=dst)``) without
#: allocating temporaries; called with two arguments they still return a
#: new array, preserving the seed API.
REDUCE_FUNCTIONS: dict[str, ReduceFn] = {
    "sum": np.add,
    "prod": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
    "bor": np.bitwise_or,
    "band": np.bitwise_and,
}


def partition_spans(total: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into ``parts`` contiguous ``(lo, hi)`` spans.

    Sizing matches ``np.array_split``: the first ``total % parts`` spans
    get one extra element, so layouts agree with code (and tests) that
    used index-array splitting.  Empty spans are legal — they keep the
    message protocol aligned when ``total < parts``.
    """
    base, extra = divmod(total, parts)
    spans: List[Tuple[int, int]] = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < extra else 0)
        spans.append((lo, hi))
        lo = hi
    return spans


def check_avg_dtype(dtype: np.dtype) -> None:
    """``avg`` divides in the array's own dtype, so it must be floating."""
    if dtype.kind != "f":
        raise ValueError(
            f"reduce op 'avg' is defined for floating dtypes, got {dtype}; "
            f"use 'sum' and divide in a floating dtype"
        )


def _reduce_plan(op: str, world: int, dtype: np.dtype) -> Tuple[ReduceFn, int | None]:
    """Resolve ``op`` to ``(ufunc, divisor)``.

    ``divisor`` is None for the plain operators; for ``"avg"`` it is the
    group size, applied once by whichever rank finishes reducing a
    segment.  Raises on an unknown name.
    """
    if op != "avg":
        try:
            return REDUCE_FUNCTIONS[op], None
        except KeyError:
            raise ValueError(
                f"unknown reduce op {op!r}; options: {sorted(REDUCE_FUNCTIONS)} "
                f"(and 'avg' for allreduce / reduce / reduce_scatter_flat)"
            ) from None
    check_avg_dtype(dtype)
    return np.add, world


def _divide(array: np.ndarray, divisor: int) -> None:
    """``array /= divisor``.  A power of two multiplies by its reciprocal
    instead: that is exact, hence the same bits, at a quarter of the cost."""
    if divisor & (divisor - 1):
        array /= divisor
    else:
        array *= 1.0 / divisor


def allreduce_naive(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    op: str = "sum",
    tag: object = "naive",
    timeout: float | None = None,
) -> None:
    """Direct exchange: every rank posts its input to all peers; reduce locally.

    Cost per rank: p−1 messages of n bytes, all posted in **one round**
    — each rank moves the *entire* buffer p−1 times, the O(p·n) strawman
    the paper contrasts with ring AllReduce, and the cheapest thing to
    do while n is so small that rounds are all there is to pay for (see
    :func:`one_round`).  Eager: one private copy is posted to every peer
    (:meth:`TransportHub.post`) and never written again.  The reference
    the ring is tested against.

    Thread-safety: safe to run concurrently on every rank thread of the
    group; the local buffer is only written by its own rank.
    """
    world, here, tag = len(ranks), ranks[me], (tag, "naive")
    mine = buffer.copy()
    hub.post(here, [rank for rank in ranks if rank != here], tag, mine)
    pieces = [mine if offset == me else _recv(hub, here, ranks[offset], tag, timeout)
              for offset in range(world)]
    reduce_in_order(buffer, pieces, op)


def reduce_in_order(buffer: np.ndarray, pieces: Sequence[np.ndarray], op: str) -> None:
    """Land the reduction of ``pieces`` (one per group rank, in rank
    order) in ``buffer``: every rank reduces the same pieces in the same
    order, so all end with the same bits; ``avg`` divides once."""
    fn, divisor = _reduce_plan(op, len(pieces), buffer.dtype)
    acc = pieces[0]
    if len(pieces) == 1:
        buffer[...] = acc
    for piece in pieces[1:]:
        acc = fn(acc, piece, out=buffer)
    if divisor:
        _divide(buffer, divisor)


def reduced(pieces: Sequence[np.ndarray], op: str) -> np.ndarray:
    """:func:`reduce_in_order` into a fresh array (a reduce-scatter's span)."""
    out = np.empty_like(pieces[0])
    reduce_in_order(out, pieces, op)
    return out


def one_round(nbytes: int, world: int) -> bool:
    """The size rule: does a collective of ``nbytes`` per rank run as one
    round of direct posts?

    True while everything one rank posts, ``(world − 1) · nbytes``, stays
    under :data:`RENDEZVOUS_BYTES` — the size at which this module stops
    copying and starts lending.  A small collective costs per-message
    latency, not bandwidth (paper Fig. 2), and one round of p−1 messages
    beats the ring's 2(p−1) rounds of one.  Every rank derives the answer
    from facts the signature check makes them agree on.  The one rule
    for AllReduce (:func:`allreduce_naive` under it,
    :func:`allreduce_ring` above) and broadcast alike.
    """
    return (world - 1) * nbytes < RENDEZVOUS_BYTES


def ring_steps(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    op: str = "sum",
    tag: object = "ring",
    signature: dict | None = None,
) -> Steps:
    """Reduce-scatter + allgather ring (NCCL's default algorithm), as steps.

    Cost per rank: 2(p−1)α + 2·((p−1)/p)·n·β — bandwidth-optimal: each
    byte crosses each link roughly twice regardless of p.  The buffer is
    partitioned into p contiguous segments.  Reduce-scatter: at step s a
    rank sends segment r − s right and reduces segment r − s − 1 from
    the left with one vectorized ufunc call, so after p − 1 steps rank r
    owns segment r + 1 fully reduced (``avg`` divides it there).
    Allgather: at step s it sends segment r + 1 − s right and fills
    segment r − s from the left.  Each segment is one message.

    The first send is ``Signed(signature, segment)`` under ``tag`` itself,
    the mailbox a one-round post uses; later ones are plain, under
    ``(tag, "rs" | "ag", step)``.

    Lent sends (buffers ≥ :data:`RENDEZVOUS_BYTES`).  *Reduce-scatter —
    causality:* segment k is lent by rank r = k+s at step s and read by
    r+1; it then travels r+1 → … → k−1 (its owner) and back out
    k−1 → k → … → r−1 → r in the allgather, every hop sending only
    after it consumed the previous one.  The sender's only later write
    to the segment is that allgather message from r−1, at the end of a
    chain that starts with r+1's read.  *Allgather — token:* a segment
    lent here is never written again by its sender, but the buffer
    outlives the call, so the right neighbour returns one token.
    """
    world = len(ranks)
    fn, divisor = _reduce_plan(op, world, buffer.dtype)
    if world == 1:
        return
    flat = buffer.reshape(-1)
    segments = partition_spans(flat.size, world)
    lend = flat.nbytes >= RENDEZVOUS_BYTES
    here, right, left = ranks[me], ranks[(me + 1) % world], (me - 1) % world
    for step in range(world - 1):
        lo, hi = segments[(me - step) % world]
        piece, step_tag = flat[lo:hi] if lend else flat[lo:hi].copy(), (tag, "rs", step)
        if not step:
            piece, step_tag = Signed(signature, piece), tag
        hub.post(here, (right,), step_tag, piece)
        lo, hi = segments[(me - step - 1) % world]
        owned = flat[lo:hi]
        (got,) = yield step_tag, (left,)
        fn(owned, got, out=owned)
    if divisor:
        _divide(owned, divisor)
    for step in range(world - 1):
        lo, hi = segments[(me + 1 - step) % world]
        hub.post(here, (right,), (tag, "ag", step), flat[lo:hi] if lend else flat[lo:hi].copy())
        lo, hi = segments[(me - step) % world]
        (flat[lo:hi],) = yield (tag, "ag", step), (left,)
    owed = _settle(hub, here, tag, lend, [ranks[left]], [(me + 1) % world])
    if owed:
        yield (tag, "done"), owed
    _write_back(buffer, flat)


def allreduce_ring(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    op: str = "sum",
    tag: object = "ring",
    timeout: float | None = None,
    chunk_bytes: None = None,  # always None: benchmarks/e2e's isolated_calls passes it
) -> None:
    """:func:`ring_steps` driven to its end on the calling thread (one
    call per rank per ``tag``, concurrently on every rank thread)."""
    if chunk_bytes is not None:
        raise TypeError(f"allreduce_ring sends unchunked; chunk_bytes must be None, "
                        f"got {chunk_bytes!r}")
    run_steps(ring_steps(hub, ranks, me, buffer, op, tag), hub, ranks, me, timeout)


def broadcast_steps(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    root: int = 0,
    tag: object = "bcast",
    signature: dict | None = None,
) -> Steps:
    """Binomial-tree broadcast from group-rank ``root`` (in place), as steps.

    Cost per rank: ≤ ⌈log₂ p⌉·(α + n·β); the root sends ⌈log₂ p⌉ copies,
    interior ranks forward once per subtree, the whole buffer as one
    message.  Under the size rule the process group posts the root's
    copy to every peer instead.  Every tree message is
    ``Signed(signature, buffer)`` under ``tag`` (a rank receives one, from
    its parent); the root sends all of its own in the first step.

    Lent sends (buffers ≥ :data:`RENDEZVOUS_BYTES`) — token: a rank
    writes its buffer once (the receive from its parent) and only
    afterwards lends it to its children, so nothing inside the call
    overwrites a lent region; each child returns one token because the
    buffer outlives the call.
    """
    flat = buffer.reshape(-1)
    world = len(ranks)
    lend = flat.nbytes >= RENDEZVOUS_BYTES
    here = ranks[me]
    parent: List[int] = []
    children: List[int] = []
    # Re-index so the root is virtual rank 0.
    vrank = (me - root) % world
    top = 1
    while top < world:
        top <<= 1
    mask = top >> 1
    while mask >= 1:
        if vrank & (mask - 1) == 0:  # still active at this round
            if vrank & mask:
                src = (vrank - mask + root) % world
                parent.append(ranks[src])
                (flat[...],) = yield tag, (src,)
            elif vrank + mask < world:
                child = (vrank + mask + root) % world
                children.append(child)
                piece = flat if lend else flat.copy()
                hub.post(here, (ranks[child],), tag, Signed(signature, piece))
        mask >>= 1
    owed = _settle(hub, here, tag, lend, parent, children)
    if owed:
        yield (tag, "done"), owed
    _write_back(buffer, flat)


def broadcast(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    root: int = 0,
    tag: object = "bcast",
    timeout: float | None = None,
) -> None:
    """:func:`broadcast_steps` driven to its end on the calling thread (one
    call per rank per ``tag``, concurrently on every rank thread)."""
    run_steps(broadcast_steps(hub, ranks, me, buffer, root, tag), hub, ranks, me, timeout)


def reduce(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    root: int = 0,
    op: str = "sum",
    tag: object = "reduce",
    timeout: float | None = None,
) -> None:
    """Binomial-tree reduce to group-rank ``root`` (in place at root;
    other ranks' buffers are left with partial results, as in MPI).

    Ranks are re-indexed so the root is virtual rank 0.  At round k a
    rank with bit k set sends its running partial to the partner with
    that bit cleared and drops out; the partner reduces it in place.
    Cost per rank: ≤ ⌈log₂ p⌉·(α + n·β); each rank sends its running
    partial exactly once.  ``avg`` divides at the root.  Eager at every
    size: a non-root's buffer is the caller's again when the call
    returns, and no later message tells it the root has read.

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    world = len(ranks)
    fn, divisor = _reduce_plan(op, world, buffer.dtype)
    flat = buffer.reshape(-1)
    here, vrank, mask = ranks[me], (me - root) % world, 1
    while mask < world:
        if vrank & mask:
            dst = ranks[(vrank - mask + root) % world]
            hub.send(here, dst, (tag, "red", mask), flat.copy())
            break
        if vrank + mask < world:
            src = ranks[(vrank + mask + root) % world]
            fn(flat, _recv(hub, here, src, (tag, "red", mask), timeout), out=flat)
        mask <<= 1
    if divisor and vrank == 0:
        _divide(flat, divisor)
    _write_back(buffer, flat)


def gather(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    root: int = 0,
    tag: object = "gather",
    timeout: float | None = None,
):
    """Gather every rank's buffer at ``root``; returns (world, n) array
    at the root and ``None`` elsewhere.

    Cost: non-roots pay α + n·β once; the root receives p−1 buffers
    ((p−1)α + (p−1)·n·β), the incast hot spot of the parameter-server
    pattern (§2.3).

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    world = len(ranks)
    flat = buffer.reshape(-1)
    if me != root:
        hub.send(ranks[me], ranks[root], (tag, "g", me), flat.copy())
        return None
    out = np.empty((world, flat.size), dtype=flat.dtype)
    out[root] = flat
    for peer in range(world):
        if peer != root:
            out[peer] = _recv(hub, ranks[me], ranks[peer], (tag, "g", peer), timeout)
    return out


def scatter(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    chunks,
    root: int = 0,
    tag: object = "scatter",
    timeout: float | None = None,
) -> np.ndarray:
    """Scatter ``chunks`` (root's list of per-rank arrays) to the group;
    returns this rank's chunk.

    Cost: the root sends p−1 messages ((p−1)·(α + (n/p)·β)); every other
    rank pays one receive.

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    world = len(ranks)
    if me == root:
        if chunks is None or len(chunks) != world:
            raise ValueError("root must provide one chunk per rank")
        for peer in range(world):
            if peer != root:
                hub.send(ranks[me], ranks[peer], (tag, "s", peer), np.asarray(chunks[peer]).copy())
        return np.asarray(chunks[root])
    return _recv(hub, ranks[me], ranks[root], (tag, "s", me), timeout)


#: The AllReduces by name: the size rule picks ``naive`` below it and
#: ``ring`` above.  Read by name by benchmarks/e2e's isolated_calls.
ALLREDUCE_ALGORITHMS = {
    "naive": allreduce_naive,
    "ring": allreduce_ring,
}
