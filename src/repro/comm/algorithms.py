"""Collective algorithms implemented over point-to-point transport.

These are the real algorithms communication libraries use (paper §2.3):

* ``allreduce_naive`` — every rank sends its tensor to every peer and
  reduces locally; the strawman the paper mentions for large tensors,
  and the one-round protocol :func:`allreduce_protocol` picks for small
  ones.  Below the size rule (:func:`one_round`) the process group runs
  it split in two — the post at issue, the receives and
  :func:`reduce_in_order` at ``wait()`` — and broadcasts the same way;
  its reduce-scatter (:func:`reduced` of the pieces of one span) and
  all-gathers run that way at every size, since their direct exchange
  moves no more bytes than a ring.
* ``allreduce_ring`` — reduce-scatter + allgather ring (NCCL's default),
  2·(p−1) chunk transfers per rank, bandwidth-optimal.
* ``allreduce_tree`` — binomial-tree reduce to a root followed by a
  binomial-tree broadcast (NCCL 2.4-style latency-optimal variant).
* ``allreduce_halving_doubling`` — recursive vector halving/distance
  doubling (Gloo's default for large tensors).

All functions operate **in place** on a flat numpy array and take the
list of participating global ranks, so sub-groups and round-robin groups
reuse them unchanged.  ``tag`` namespaces concurrent collectives.

Hot-path design (paper Figs. 7/8 cost model):

* **Contiguous segments** — buffers are partitioned with
  :func:`partition_spans` into contiguous ``[lo, hi)`` windows, so every
  send is one slice and every reduction is one vectorized numpy ufunc
  call (``np.add(dst, src, out=dst)``).  No index arrays, no
  fancy-indexing gathers, no Python element loops.
* **One memory pass per transferred byte** — the transport's ownership
  contract is *a sent array is not modified until the peer consumed
  it*.  Below :data:`RENDEZVOUS_BYTES` the chunked collectives honour it
  the *eager* way, by sending a private copy.  At or above it they
  *lend*: ``hub.send`` gets a view of the collective's own buffer and
  the peer reduces or copies straight out of it (the rendezvous
  protocol of large-message MPI / Gloo / NCCL paths).  A lent region is
  protected by **causality** where the sender's next write to it is
  itself triggered by a message that follows the peer's read (reduce /
  reduce-scatter phases), and by one zero-byte **completion token** per
  borrowing peer where the buffer outlives the collective (all-gather /
  broadcast phases): the borrower sends the token after its last read and the
  lender receives it before the algorithm returns, so ``Work.wait()``
  still means "this tensor is yours again".  Each function's docstring
  carries its own argument; ``docs/internals.md`` has the table.
* **Fused average** — ``op="avg"`` (``ReduceOp.AVG``) is a sum plus
  exactly one division by the group size, done by the rank that holds a
  fully reduced chunk, on the chunk it just reduced and before it is
  circulated — bitwise what a sum followed by ``/= world`` on every
  rank produces, for 1/p of the arithmetic and no extra sweep.
* **Chunked transfers** — segments larger than ``chunk_bytes`` (default
  :data:`DEFAULT_CHUNK_BYTES`, env ``REPRO_CHUNK_BYTES``) are split into
  chunks that are deposited into the transport back-to-back.  Because
  ``TransportHub.send`` never blocks, several chunks are in flight at
  once and a receiver starts reducing chunk 0 while the sender is still
  copying chunk *k* — the chunk-level pipelining of the S-SGD DAG model
  (Shi et al.).  Chunk counts are derived purely from (segment size,
  chunk size), which both endpoints know, so no extra coordination
  messages are needed.

Complexity notes use the paper's α–β model: α is per-message latency,
β is per-byte transfer time, *n* is the buffer's byte size and *p* the
number of participating ranks.

Thread-safety: every function is written to run on one rank's thread
while peer ranks run the same function concurrently; all shared state
lives in the :class:`~repro.comm.transport.TransportHub` mailboxes.
Per-rank buffers are only touched by their own rank.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.comm.transport import TransportHub

ReduceFn = Callable[..., np.ndarray]

#: Collective buffers of at least this many bytes are sent by rendezvous
#: (lent views + completion tokens), smaller ones by eager copy.  256 KiB
#: is where lending overtakes copying on a world-2 halving-doubling
#: AllReduce (docs/performance.md, "Bandwidth path").  Every rank derives
#: the choice from ``buffer.nbytes``, which the signature check already
#: makes them agree on, so the message protocol stays aligned.
RENDEZVOUS_BYTES: int = 256 * 1024


#: ``executing.stalls`` is the receive-stall dict of the collective the
#: calling thread executes: set by ``ProcessGroup._execute`` while
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


def _post(hub: TransportHub, src: int, dst: int, tag: object, piece: np.ndarray,
          lend: bool) -> None:
    """Send ``piece``: lent as the view it is, or as an eager copy."""
    hub.send(src, dst, tag, piece if lend else piece.copy())


def _settle(hub: TransportHub, me: int, tag: object, lend: bool,
            lenders: Sequence[int], borrowers: Sequence[int],
            timeout: float | None) -> None:
    """Return lent regions to their owners: one token per borrowing peer.

    Called after this rank's last read of every ``lenders`` buffer; it
    returns once every ``borrowers`` peer has said the same about ours.
    Tokens are ordinary (zero-byte) messages.
    """
    if not lend:
        return
    for peer in lenders:
        hub.send(me, peer, (tag, "done"), None)
    for peer in borrowers:
        _recv(hub, me, peer, (tag, "done"), timeout)


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


def _default_chunk_bytes() -> int:
    """``REPRO_CHUNK_BYTES`` (1 MiB when unset); anything but an integer
    ≥ 1 raises rather than silently becoming some other chunk size."""
    raw = os.environ.get("REPRO_CHUNK_BYTES")
    if raw is None:
        return 1 << 20
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(
            f"REPRO_CHUNK_BYTES={raw!r} is not a chunk size: expected an "
            f"integer number of bytes >= 1"
        )
    return value


#: Default transfer-chunk size in bytes (1 MiB): what a collective uses
#: when its caller passes ``chunk_bytes=None`` (a process group's
#: ``chunk_bytes``, settable per group).  ``REPRO_CHUNK_BYTES`` overrides
#: it, read once at import.
DEFAULT_CHUNK_BYTES: int = _default_chunk_bytes()


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


def _chunk_elems(chunk_bytes: int | None, dtype: np.dtype) -> int:
    nbytes = DEFAULT_CHUNK_BYTES if chunk_bytes is None else int(chunk_bytes)
    return max(1, nbytes // max(1, dtype.itemsize))


def _chunk_spans(lo: int, hi: int, chunk_elems: int) -> List[Tuple[int, int]]:
    """Split window ``[lo, hi)`` into chunks of at most ``chunk_elems``.

    An empty window still yields exactly one (empty) chunk so sender and
    receiver always exchange the same number of messages per window.
    """
    if hi <= lo:
        return [(lo, lo)]
    spans = []
    while lo < hi:
        mid = min(lo + chunk_elems, hi)
        spans.append((lo, mid))
        lo = mid
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
    group size, applied once by whichever rank finishes reducing a chunk.
    Raises on an unknown name.
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
    chunk_bytes: int | None = None,
) -> None:
    """Direct exchange: every rank posts its input to all peers; reduce locally.

    Cost per rank: p−1 messages of n bytes, all posted in **one round**
    — each rank moves the *entire* buffer p−1 times, the O(p·n) strawman
    the paper contrasts with ring AllReduce, and the cheapest thing to
    do while n is so small that rounds are all there is to pay for (see
    :func:`allreduce_protocol`).  Unchunked and eager: one private copy
    is posted to every peer (:meth:`TransportHub.post`) and never
    written again.

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
    beats 2·log₂ p rounds of one.  Every rank derives the answer from
    facts the signature check makes them agree on.  The one rule for
    AllReduce (:func:`allreduce_protocol`) and broadcast alike.
    """
    return (world - 1) * nbytes < RENDEZVOUS_BYTES


def allreduce_protocol(algorithm: str, nbytes: int, world: int) -> str:
    """The AllReduce that runs for an ``nbytes`` buffer on ``world`` ranks:
    ``"naive"`` (one round of direct exchange) under :func:`one_round`'s
    size rule, the configured ``algorithm`` from there on."""
    return "naive" if one_round(nbytes, world) else algorithm


def _ring_reduce_scatter(hub: TransportHub, ranks: Sequence[int], me: int, flat: np.ndarray,
                         first: int, fn: ReduceFn, divisor: int | None, tag: object,
                         timeout: float | None, chunk_bytes: int | None) -> None:
    """The ring's reduce-scatter phase, in place: at step s a rank sends
    segment ``first − s`` right and reduces segment ``first − s − 1``
    from the left into ``flat``, so after p − 1 steps it owns segment
    ``first − p + 2`` fully reduced.  Each step forwards what the
    previous one reduced; ``divisor`` divides in the last step.  The
    allgather that follows settles the lent sends."""
    world = len(ranks)
    segments = partition_spans(flat.size, world)
    celems = _chunk_elems(chunk_bytes, flat.dtype)
    lend = flat.nbytes >= RENDEZVOUS_BYTES
    here, right, left = ranks[me], ranks[(me + 1) % world], ranks[(me - 1) % world]
    for step in range(world - 1):
        send_lo, send_hi = segments[(first - step) % world]
        recv_lo, recv_hi = segments[(first - step - 1) % world]
        owned = divisor and step == world - 2
        for c, (lo, hi) in enumerate(_chunk_spans(send_lo, send_hi, celems)):
            _post(hub, here, right, (tag, "rs", step, c), flat[lo:hi], lend)
        for c, (lo, hi) in enumerate(_chunk_spans(recv_lo, recv_hi, celems)):
            piece = flat[lo:hi]
            fn(piece, _recv(hub, here, left, (tag, "rs", step, c), timeout), out=piece)
            if owned:
                _divide(piece, divisor)


def _ring_allgather(hub: TransportHub, ranks: Sequence[int], me: int, flat: np.ndarray,
                    first: int, tag: object, timeout: float | None,
                    chunk_bytes: int | None) -> None:
    """The ring's allgather phase: at step s a rank sends segment
    ``first − s`` right and fills segment ``first − s − 1`` from the left,
    so a rank that starts out holding segment ``first`` ends with all.
    Then :func:`_settle` with both neighbours, for this phase and any
    reduce-scatter before it in the same call."""
    world = len(ranks)
    segments = partition_spans(flat.size, world)
    celems = _chunk_elems(chunk_bytes, flat.dtype)
    lend = flat.nbytes >= RENDEZVOUS_BYTES
    here, right, left = ranks[me], ranks[(me + 1) % world], ranks[(me - 1) % world]
    for step in range(world - 1):
        send_lo, send_hi = segments[(first - step) % world]
        recv_lo, recv_hi = segments[(first - step - 1) % world]
        for c, (lo, hi) in enumerate(_chunk_spans(send_lo, send_hi, celems)):
            _post(hub, here, right, (tag, "ag", step, c), flat[lo:hi], lend)
        for c, (lo, hi) in enumerate(_chunk_spans(recv_lo, recv_hi, celems)):
            flat[lo:hi] = _recv(hub, here, left, (tag, "ag", step, c), timeout)
    _settle(hub, here, tag, lend, [left], [right], timeout)


def allreduce_ring(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    op: str = "sum",
    tag: object = "ring",
    timeout: float | None = None,
    chunk_bytes: int | None = None,
) -> None:
    """Reduce-scatter + allgather ring (NCCL's default algorithm).

    Cost per rank: 2(p−1)α + 2·((p−1)/p)·n·β — bandwidth-optimal: each
    byte crosses each link roughly twice regardless of p.  The buffer is
    partitioned into p contiguous segments; every step each rank sends
    one segment right and reduces the incoming segment from the left
    with one vectorized ufunc call.  Segments larger than ``chunk_bytes``
    are pipelined as several in-flight chunks (the reducing side starts
    on chunk 0 while later chunks are still being deposited).  ``avg``
    divides in the last reduce-scatter step, on the segment a rank owns.

    Lent sends (buffers ≥ :data:`RENDEZVOUS_BYTES`).  *Reduce-scatter —
    causality:* segment k is lent by rank r = k+s at step s and read by
    r+1; each chunk of it then travels r+1 → … → k−1 (its owner) and
    back out k−1 → k → … → r−1 → r in the allgather, every hop sending
    only after it consumed the previous one.  The sender's only later
    write to the chunk is that allgather message from r−1, at the end
    of a chain that starts with r+1's read.  *Allgather — token:* a
    segment lent here is never written again by its sender, but the
    buffer outlives the call, so the right neighbour returns one token.

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    world = len(ranks)
    fn, divisor = _reduce_plan(op, world, buffer.dtype)
    if world == 1:
        return
    flat = buffer.reshape(-1)
    # In place, leaving rank r owning segment (r+1) % p; circulated from there.
    _ring_reduce_scatter(hub, ranks, me, flat, me, fn, divisor, tag, timeout, chunk_bytes)
    _ring_allgather(hub, ranks, me, flat, me + 1, tag, timeout, chunk_bytes)
    _write_back(buffer, flat)


def _tree_reduce(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    flat: np.ndarray,
    fn: ReduceFn,
    divisor: int | None,
    root: int,
    tag: object,
    timeout: float | None,
    chunk_bytes: int | None,
    lend: bool,
) -> None:
    """Binomial-tree reduce of a 1-D array to group-rank ``root``.

    Ranks are re-indexed so the root is virtual rank 0.  At round k a
    rank with bit k set sends its running partial to the partner with
    that bit cleared and drops out; the partner reduces it in place,
    chunk by chunk.  ``divisor`` divides at the root, in its last round.
    ``lend`` sends views instead of copies — only for a caller whose next
    write to the buffer is triggered by a message that follows the
    partner's read (see :func:`allreduce_tree`).
    """
    world = len(ranks)
    whole = _chunk_spans(0, flat.size, _chunk_elems(chunk_bytes, flat.dtype))
    here = ranks[me]
    vrank = (me - root) % world
    mask = 1
    while mask < world:
        if vrank & mask:
            dst = ranks[(vrank - mask + root) % world]
            for c, (lo, hi) in enumerate(whole):
                _post(hub, here, dst, (tag, "red", mask, c), flat[lo:hi], lend)
            return
        vpartner = vrank + mask
        if vpartner < world:
            src = ranks[(vpartner + root) % world]
            reduced = divisor and vrank == 0 and mask << 1 >= world
            for c, (lo, hi) in enumerate(whole):
                incoming = _recv(hub, here, src, (tag, "red", mask, c), timeout)
                piece = flat[lo:hi]
                fn(piece, incoming, out=piece)
                if reduced:
                    _divide(piece, divisor)
        mask <<= 1


def allreduce_tree(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    op: str = "sum",
    tag: object = "tree",
    timeout: float | None = None,
    chunk_bytes: int | None = None,
) -> None:
    """Binomial-tree reduce to rank 0 then binomial-tree broadcast.

    Cost per rank: ≈ 2·⌈log₂ p⌉·(α + n·β) — latency-optimal in message
    rounds (the NCCL 2.4-style tree variant) but each round moves the
    full buffer, so it loses to the ring on large n.  Whole-buffer
    transfers are chunked so partners overlap reduction with transfer.
    ``avg`` divides at the root, in its last reduce round.

    Lent sends.  *Reduce — causality:* a rank lends its whole buffer to
    the partner below its lowest set bit and drops out; its next write
    is the broadcast it receives from that same partner, which the
    partner sends after it reduced the lent chunks.  *Broadcast — token*
    (see :func:`broadcast`).

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    fn, divisor = _reduce_plan(op, len(ranks), buffer.dtype)
    flat = buffer.reshape(-1)
    lend = flat.nbytes >= RENDEZVOUS_BYTES
    _tree_reduce(hub, ranks, me, flat, fn, divisor, 0, tag, timeout, chunk_bytes, lend)
    # Broadcast phase: mirror image, highest mask first.
    broadcast(hub, ranks, me, flat, 0, tag, timeout, chunk_bytes)
    _write_back(buffer, flat)


def allreduce_halving_doubling(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    op: str = "sum",
    tag: object = "hd",
    timeout: float | None = None,
    chunk_bytes: int | None = None,
) -> None:
    """Recursive vector-halving distance-doubling (Gloo's large-tensor path).

    Cost per rank: 2·log₂ p·α + 2·((p−1)/p)·n·β — the ring's bandwidth
    optimality at tree-like log₂ p latency.  Each round exchanges a
    contiguous half-window with the partner at distance 2ᵏ; windows are
    chunked for in-flight pipelining.  Requires a power-of-two
    participant count; other sizes delegate to the ring, which is what
    Gloo's bcube fallback effectively does.  ``avg`` divides in the last
    halving round, on the window a rank ends up owning.

    Lent sends.  *Halving — causality:* the half a rank lends at
    distance d lies outside every window it touches in later halving
    rounds; its next write to it is the doubling-round message at the
    same distance d from the same partner, who sends it after reducing
    the lent chunks.  *Doubling — token:* the window a rank lends is
    never written again inside the call (later rounds fill outside it);
    each of the log₂ p doubling partners returns one token.

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    world = len(ranks)
    if world & (world - 1):
        allreduce_ring(hub, ranks, me, buffer, op, (tag, "ringfb"), timeout, chunk_bytes)
        return
    fn, divisor = _reduce_plan(op, world, buffer.dtype)
    if world == 1:
        return
    flat = buffer.reshape(-1)
    celems = _chunk_elems(chunk_bytes, flat.dtype)
    lend = flat.nbytes >= RENDEZVOUS_BYTES
    here = ranks[me]
    # Track the index window this rank is responsible for.
    lo, hi = 0, flat.size
    distance = 1
    spans = []
    # Reduce-scatter with halving vectors.
    while distance < world:
        partner = me ^ distance
        mid = lo + (hi - lo) // 2
        if me < partner:
            send_lo, send_hi, keep_lo, keep_hi = mid, hi, lo, mid
        else:
            send_lo, send_hi, keep_lo, keep_hi = lo, mid, mid, hi
        owned = divisor and distance << 1 == world
        for c, (clo, chi) in enumerate(_chunk_spans(send_lo, send_hi, celems)):
            _post(hub, here, ranks[partner], (tag, "rs", distance, c), flat[clo:chi], lend)
        for c, (clo, chi) in enumerate(_chunk_spans(keep_lo, keep_hi, celems)):
            incoming = _recv(hub, here, ranks[partner], (tag, "rs", distance, c), timeout)
            piece = flat[clo:chi]
            fn(piece, incoming, out=piece)
            if owned:
                _divide(piece, divisor)
        spans.append((lo, hi))
        lo, hi = keep_lo, keep_hi
        distance <<= 1
    # Allgather with doubling vectors (reverse the halving).
    partners = []
    distance >>= 1
    while distance >= 1:
        partner = me ^ distance
        partners.append(ranks[partner])
        prev_lo, prev_hi = spans.pop()
        for c, (clo, chi) in enumerate(_chunk_spans(lo, hi, celems)):
            _post(hub, here, ranks[partner], (tag, "ag", distance, c), flat[clo:chi], lend)
        # Partners shared the same parent window [prev_lo, prev_hi); the
        # lower rank kept the lower half, so each fills in the other half.
        fill_lo, fill_hi = (hi, prev_hi) if me < partner else (prev_lo, lo)
        for c, (clo, chi) in enumerate(_chunk_spans(fill_lo, fill_hi, celems)):
            flat[clo:chi] = _recv(hub, here, ranks[partner], (tag, "ag", distance, c), timeout)
        lo, hi = prev_lo, prev_hi
        distance >>= 1
    _settle(hub, here, tag, lend, partners, partners, timeout)
    _write_back(buffer, flat)


def broadcast(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    root: int = 0,
    tag: object = "bcast",
    timeout: float | None = None,
    chunk_bytes: int | None = None,
) -> None:
    """Binomial-tree broadcast from group-rank ``root`` (in place).

    Cost per rank: ≤ ⌈log₂ p⌉·(α + n·β); the root sends ⌈log₂ p⌉ copies,
    interior ranks forward once per subtree.  Transfers are chunked so
    a forwarding rank relays chunk 0 before chunk *k* arrives.  Under the
    size rule the process group posts the root's copy to every peer instead;
    :func:`allreduce_tree` and :func:`allreduce_hierarchical` end with
    this broadcast.

    Lent sends (buffers ≥ :data:`RENDEZVOUS_BYTES`) — token: a rank
    writes its buffer once (the receive from its parent) and only
    afterwards lends it to its children, so nothing inside the call
    overwrites a lent region; each child returns one token because the
    buffer outlives the call.

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    flat = buffer.reshape(-1)
    world = len(ranks)
    whole = _chunk_spans(0, flat.size, _chunk_elems(chunk_bytes, flat.dtype))
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
                src = ranks[(vrank - mask + root) % world]
                parent.append(src)
                for c, (lo, hi) in enumerate(whole):
                    flat[lo:hi] = _recv(hub, here, src, (tag, "bc", mask, c), timeout)
            elif vrank + mask < world:
                dst = ranks[(vrank + mask + root) % world]
                children.append(dst)
                for c, (lo, hi) in enumerate(whole):
                    _post(hub, here, dst, (tag, "bc", mask, c), flat[lo:hi], lend)
        mask >>= 1
    _settle(hub, here, tag, lend, parent, children, timeout)
    _write_back(buffer, flat)


def reduce(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    root: int = 0,
    op: str = "sum",
    tag: object = "reduce",
    timeout: float | None = None,
    chunk_bytes: int | None = None,
) -> None:
    """Binomial-tree reduce to group-rank ``root`` (in place at root;
    other ranks' buffers are left with partial results, as in MPI).

    Cost per rank: ≤ ⌈log₂ p⌉·(α + n·β); each rank sends its running
    partial exactly once, chunked (:func:`_tree_reduce`, the reduce
    phase of :func:`allreduce_tree`).  ``avg`` divides at the root.
    Eager at every size: a non-root's buffer is the caller's again when
    the call returns, and no later message tells it the root has read.

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    fn, divisor = _reduce_plan(op, len(ranks), buffer.dtype)
    flat = buffer.reshape(-1)
    _tree_reduce(hub, ranks, me, flat, fn, divisor, root, tag, timeout, chunk_bytes, False)
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


def allreduce_hierarchical(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    op: str = "sum",
    tag: object = "hier",
    timeout: float | None = None,
    chunk_bytes: int | None = None,
    group_size: int = 8,
) -> None:
    """Two-level AllReduce: intra-group reduce → leader ring → broadcast.

    This is how multi-node NCCL behaves in practice: fast intra-server
    links absorb most of the volume, and only one stream per server
    crosses the slow inter-server network.  Groups are consecutive runs
    of ``group_size`` ranks (matching ``ClusterSpec.placement``); a
    trailing smaller group is fine.

    Cost per rank: ≈ ⌈log₂ g⌉·(α + n·β) intra-group + (for leaders)
    2(ℓ−1)α + 2((ℓ−1)/ℓ)·n·β on the leader ring of ℓ = ⌈p/g⌉ members.

    Every phase lends as its :func:`allreduce_tree` / :func:`allreduce_ring`
    counterpart does: the intra-group reduce by causality (a rank's next
    write is the group broadcast from the partner it lent to), the leader
    ring and the broadcast as in those functions.  ``avg``
    divides in the leader ring — by the size of the *whole* group, not
    by the leader count.

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    world = len(ranks)
    if world <= group_size:
        allreduce_ring(hub, ranks, me, buffer, op, (tag, "flat"), timeout, chunk_bytes)
        return
    fn, divisor = _reduce_plan(op, world, buffer.dtype)
    flat = buffer.reshape(-1)

    group_index = me // group_size
    group_lo = group_index * group_size
    group_members = ranks[group_lo : group_lo + group_size]
    local_me = me - group_lo
    leader_locals = list(range(0, world, group_size))
    leaders = [ranks[i] for i in leader_locals]

    # Phase 1: reduce within the group to its leader (local rank 0);
    # under avg the sums stay sums until the leader ring.
    lend = flat.nbytes >= RENDEZVOUS_BYTES
    _tree_reduce(hub, group_members, local_me, flat, fn, None, 0,
                 (tag, "intra", group_index), timeout, chunk_bytes, lend)
    # Phase 2: ring AllReduce among the leaders.
    if local_me == 0:
        # allreduce_ring, averaging over the whole group.
        leader_me, inter = leader_locals.index(group_lo), (tag, "inter")
        _ring_reduce_scatter(hub, leaders, leader_me, flat, leader_me, fn, divisor, inter,
                             timeout, chunk_bytes)
        _ring_allgather(hub, leaders, leader_me, flat, leader_me + 1, inter, timeout, chunk_bytes)
    # Phase 3: broadcast the result within the group.
    broadcast(
        hub, group_members, local_me, flat, 0, (tag, "bcast", group_index), timeout, chunk_bytes
    )
    _write_back(buffer, flat)


#: Registry the :class:`~repro.comm.process_group.ProcessGroup` backends
#: resolve their default AllReduce algorithm from.
ALLREDUCE_ALGORITHMS = {
    "naive": allreduce_naive,
    "ring": allreduce_ring,
    "tree": allreduce_tree,
    "halving_doubling": allreduce_halving_doubling,
    "hierarchical": allreduce_hierarchical,
}
