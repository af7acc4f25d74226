"""Collective algorithms implemented over point-to-point transport.

These are the real algorithms communication libraries use (paper §2.3):

* ``allreduce_naive`` — every rank sends its tensor to every peer and
  reduces locally; the strawman the paper mentions for large tensors,
  and the one-round protocol :func:`allreduce_protocol` picks for small
  ones.  Below the size rule (:func:`one_round`) the process group runs
  it split in two — :class:`OneRoundAllreduce` posts at issue and
  receives at ``wait()`` — and broadcasts the same way
  (:class:`OneRoundBroadcast`).
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
  broadcast phases, ``reduce_scatter_flat``'s sends of the caller's
  input): the borrower sends the token after its last read and the
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
import time
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.comm.gates import NOTHING
from repro.comm.transport import TransportHub
from repro.telemetry.health import accounting as _health

ReduceFn = Callable[..., np.ndarray]

#: Collective buffers of at least this many bytes are sent by rendezvous
#: (lent views + completion tokens), smaller ones by eager copy.  256 KiB
#: is where lending overtakes copying on a world-2 halving-doubling
#: AllReduce (docs/performance.md, "Bandwidth path").  Every rank derives
#: the choice from ``buffer.nbytes``, which the signature check already
#: makes them agree on, so the message protocol stays aligned.
RENDEZVOUS_BYTES: int = 256 * 1024


def _recv(hub: TransportHub, me: int, src: int, tag: object, timeout: float | None):
    """``hub.recv`` plus per-source stall attribution.

    When the process-group worker has bracketed this collective for
    health accounting (:func:`repro.telemetry.health.accounting.active`),
    the time spent inside ``recv`` is attributed to the sending rank —
    the raw signal behind straggler and slow-link diagnoses.  Outside a
    bracket this is a plain ``hub.recv`` plus one attribute check.
    """
    if not _health.active():
        return hub.recv(me, src, tag, timeout)
    t0 = time.perf_counter()
    payload = hub.recv(me, src, tag, timeout)
    _health.note_recv_stall(src, time.perf_counter() - t0)
    return payload


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
    Tokens are ordinary (zero-byte) messages, so a retrying transport
    sequences, checksums and retransmits them like any other.
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
    is posted to every peer and never written again.

    Every rank reduces the p contributions in group-rank order, its own
    taking its place in that order, so all ranks end with the same bits
    whatever the operator's rounding.  ``avg`` divides each rank's
    accumulator.

    Thread-safety: safe to run concurrently on every rank thread of the
    group; the local buffer is only written by its own rank.
    """
    exchange = OneRoundAllreduce(hub, ranks, me, buffer, op, (tag, "naive"))
    exchange.drain(True, timeout)
    exchange.finish()


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


class OneRound:
    """One round of direct posts, received in a second phase.

    The split-phase form of the small collectives: construction posts
    this rank's contribution, :meth:`drain` collects the peers' — all at
    once, or (``block=False``) whatever has arrived, without parking —
    and :meth:`finish` lands the result in the buffer.  Cost per rank:
    one α for the round, ``len(dsts)`` eager messages of n bytes out and
    ``len(srcs)`` in.  The payload is one private copy taken at post time,
    sent to every destination and never written again, so the caller may
    reuse its buffer as soon as the post returns.

    A message travels under ``(tag, sender's group rank)``.  ``tag``
    carries whatever sender and receiver must agree on — the process
    group puts the collective's fingerprint there — so a post that
    disagrees is never consumed.

    Thread-safety: one rank's exchange; one thread at a time may drain it
    (the process group's ``Work`` serialises its callers).
    """

    __slots__ = ("hub", "ranks", "me", "buffer", "tag", "pieces", "missing")

    def __init__(self, hub: TransportHub, ranks: Sequence[int], me: int,
                 buffer: np.ndarray, tag: object, payload, dsts: Sequence[int],
                 srcs: Sequence[int]):
        self.hub, self.ranks, self.me, self.buffer, self.tag = hub, ranks, me, buffer, tag
        here = ranks[me]
        for offset in dsts:
            hub.send(here, ranks[offset], (tag, me), payload)
        #: Received contributions by sender group rank.
        self.pieces: dict = {}
        #: Senders still to be heard from, in group-rank order.
        self.missing: List[int] = list(srcs)

    def drain(self, block: bool, timeout: float | None = None) -> bool:
        """Receive outstanding contributions; True once all are in.

        ``block`` parks on each missing sender in group-rank order (with
        health stall attribution, :func:`_recv`); otherwise each is polled
        once and what has not arrived stays missing.
        """
        hub, here = self.hub, self.ranks[self.me]
        for offset in tuple(self.missing):
            key = (self.tag, offset)
            if block:
                piece = _recv(hub, here, self.ranks[offset], key, timeout)
            else:
                piece = hub.poll(here, self.ranks[offset], key)
                if piece is NOTHING:
                    continue
            self.pieces[offset] = piece
            self.missing.remove(offset)
        return not self.missing

    def finish(self) -> None:
        """Land the result in the buffer (every contribution is in)."""
        raise NotImplementedError


class OneRoundAllreduce(OneRound):
    """Direct-exchange AllReduce in two phases (:func:`allreduce_naive`).

    Every rank posts a copy of its buffer to every peer; :meth:`finish`
    reduces the p contributions in group-rank order, its own taking its
    place in that order, so all ranks end with the same bits whatever the
    operator's rounding.  ``avg`` divides each rank's accumulator.  The
    contribution is the buffer's value at post time.
    """

    __slots__ = ("fn", "divisor", "mine")

    def __init__(self, hub: TransportHub, ranks: Sequence[int], me: int,
                 buffer: np.ndarray, op: str, tag: object):
        world = len(ranks)
        self.fn, self.divisor = _reduce_plan(op, world, buffer.dtype)
        self.mine = buffer.copy() if world > 1 else None
        peers = [offset for offset in range(world) if offset != me]
        super().__init__(hub, ranks, me, buffer, tag, self.mine, peers, peers)

    def finish(self) -> None:
        """Reduce the contributions in group-rank order into the buffer."""
        if self.mine is None:  # world 1
            return
        fn, buffer, pieces = self.fn, self.buffer, self.pieces
        acc = None
        for offset in range(len(self.ranks)):
            piece = self.mine if offset == self.me else pieces[offset]
            # The first operation reads two contributions and lands in
            # the buffer; from then on the buffer is the accumulator.
            acc = piece if acc is None else fn(acc, piece, out=buffer)
        if self.divisor:
            _divide(buffer, self.divisor)


class OneRoundBroadcast(OneRound):
    """Direct broadcast in two phases: the root posts one copy to each
    peer, every peer receives one message.  The same bits as the tree
    :func:`broadcast`, in one round instead of ⌈log₂ p⌉."""

    __slots__ = ("root",)

    def __init__(self, hub: TransportHub, ranks: Sequence[int], me: int,
                 buffer: np.ndarray, root: int, tag: object):
        self.root = root
        if me == root:
            peers = [offset for offset in range(len(ranks)) if offset != root]
            payload = buffer.copy() if peers else None
            super().__init__(hub, ranks, me, buffer, tag, payload, peers, ())
        else:
            super().__init__(hub, ranks, me, buffer, tag, None, (), (root,))

    def finish(self) -> None:
        """Copy the root's value into a non-root's buffer."""
        if self.me != self.root:
            self.buffer[...] = self.pieces[self.root]


def _ring_reduce_scatter(hub: TransportHub, ranks: Sequence[int], me: int, flat: np.ndarray,
                         first: int, fn: ReduceFn, divisor: int | None, tag: object,
                         timeout: float | None, chunk_bytes: int | None,
                         standalone: bool) -> np.ndarray:
    """The ring's reduce-scatter phase; returns the segment this rank ends
    up owning, fully reduced.

    At step s a rank sends segment ``first − s`` right and reduces
    segment ``first − s − 1`` from the left with its own values, so after
    p − 1 steps it owns segment ``first − p + 2``.  Each step forwards
    what the previous one reduced; ``divisor`` divides in the last step.
    Inside an AllReduce the reduction lands in ``flat`` and the allgather
    that follows settles the lent sends; ``standalone`` reduces into a
    fresh segment-sized array per step, leaving ``flat`` as it was, and
    settles here.
    """
    world = len(ranks)
    segments = partition_spans(flat.size, world)
    celems = _chunk_elems(chunk_bytes, flat.dtype)
    lend = flat.nbytes >= RENDEZVOUS_BYTES
    here, right, left = ranks[me], ranks[(me + 1) % world], ranks[(me - 1) % world]
    # What the coming step sends, and the flat index of its element 0.
    outgoing, base = flat, 0
    for step in range(world - 1):
        send_lo, send_hi = segments[(first - step) % world]
        recv_lo, recv_hi = segments[(first - step - 1) % world]
        owned = divisor and step == world - 2
        for c, (lo, hi) in enumerate(_chunk_spans(send_lo, send_hi, celems)):
            _post(hub, here, right, (tag, "rs", step, c), outgoing[lo - base : hi - base], lend)
        partial = np.empty(recv_hi - recv_lo, flat.dtype) if standalone else flat[recv_lo:recv_hi]
        for c, (lo, hi) in enumerate(_chunk_spans(recv_lo, recv_hi, celems)):
            incoming = _recv(hub, here, left, (tag, "rs", step, c), timeout)
            piece = partial[lo - recv_lo : hi - recv_lo]
            fn(flat[lo:hi], incoming, out=piece)
            if owned:
                _divide(piece, divisor)
        outgoing, base = partial, recv_lo
    if standalone:
        _settle(hub, here, tag, lend, [left], [right], timeout)
    return partial


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
    _ring_reduce_scatter(hub, ranks, me, flat, me, fn, divisor, tag, timeout, chunk_bytes, False)
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
    size rule the process group runs :class:`OneRoundBroadcast` instead;
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


def reduce_scatter_flat(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    op: str = "sum",
    tag: object = "rsflat",
    timeout: float | None = None,
    chunk_bytes: int | None = None,
) -> np.ndarray:
    """Chunked ring reduce-scatter over contiguous spans; returns rank
    ``me``'s fully reduced span.

    The buffer is partitioned with :func:`partition_spans` into ``p``
    contiguous spans and rank ``r`` receives the reduction of span ``r``
    — the ownership convention the sharded (ZeRO) stack builds on: the
    span a rank reduces here is exactly the span it owns in
    ``all_gather_into_flat`` and in the sharded optimizer's state
    partition.  The caller's buffer is left untouched: every step
    reduces the incoming partial sum with the caller's span *into a
    fresh span-sized array*, which is what the next step forwards and
    what the last step returns — no world-sized scratch.  ``avg``
    divides the returned span, in the last step.

    Cost per rank: (p−1)α + ((p−1)/p)·n·β — phase 1 of the ring
    AllReduce.  Spans larger than ``chunk_bytes`` are pipelined as
    several in-flight chunks; empty spans (``n < p``) still exchange one
    empty chunk per step so the message protocol stays aligned.

    Lent sends.  Step 0 lends the caller's own span, which outlives the
    call — *token* from the right neighbour.  Later steps lend the
    previous step's partial array, which nobody writes again — nothing
    to protect.

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    world = len(ranks)
    flat = buffer.reshape(-1)
    fn, divisor = _reduce_plan(op, world, flat.dtype)
    if world == 1:
        return flat.copy()
    # The allreduce_ring schedule shifted by one slot, so after world-1
    # steps rank r holds the fully reduced segment r (not (r+1) % p).
    return _ring_reduce_scatter(hub, ranks, me, flat, me - 1, fn, divisor, tag, timeout,
                                chunk_bytes, True)


def all_gather_into_flat(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    shard: np.ndarray | None = None,
    tag: object = "agflat",
    timeout: float | None = None,
    chunk_bytes: int | None = None,
) -> None:
    """Chunked ring allgather of per-rank spans into one flat buffer.

    The inverse of :func:`reduce_scatter_flat`: ``buffer`` (in place) is
    partitioned with :func:`partition_spans` and, after the call, every
    rank holds all ``p`` spans.  Rank ``r`` contributes span ``r`` —
    taken from ``shard`` when given (it must match the span's element
    count), otherwise from the buffer's own span, so callers that keep
    only their shard materialize the full tensor without staging it
    first.

    Cost per rank: (p−1)α + ((p−1)/p)·n·β — phase 2 of the ring
    AllReduce.  Spans larger than ``chunk_bytes`` are pipelined as
    several in-flight chunks; empty spans still exchange one empty chunk
    per step so the message protocol stays aligned.

    Lent sends — token: a span is lent only after this rank wrote it
    (its own at step 0, a received one afterwards) and is not written
    again; the right neighbour returns one token.

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    world = len(ranks)
    flat = buffer.reshape(-1)
    segments = partition_spans(flat.size, world)
    my_lo, my_hi = segments[me]
    if shard is not None:
        contribution = np.asarray(shard).reshape(-1)
        if contribution.size != my_hi - my_lo:
            raise ValueError(
                f"shard has {contribution.size} elements but rank {me}'s "
                f"span of a {flat.size}-element buffer over {world} ranks "
                f"holds {my_hi - my_lo}"
            )
        flat[my_lo:my_hi] = contribution
    if world > 1:
        _ring_allgather(hub, ranks, me, flat, me, tag, timeout, chunk_bytes)
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
                             timeout, chunk_bytes, False)
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
