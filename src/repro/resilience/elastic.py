"""Shrink-to-survive elastic training: the generation supervisor.

:func:`run_elastic` runs a DDP training loop the way production
schedulers run it — expecting ranks to die.  Each attempt is a
**generation**: a fresh :class:`~repro.comm.transport.TransportHub`
plus a fresh process group with a generation-unique ``group_id`` (so no
store key from a dead generation can bleed into the next), one thread
per rank, and a store-based heartbeat per rank (the beat duty of the
rank's :class:`~repro.comm.liveness.RankMonitor`: one every
:data:`~repro.comm.liveness.BEAT_INTERVAL`).  The supervisor (the
caller's thread) watches heartbeats and explicit death flags — a beat
older than :data:`~repro.comm.liveness.MISS_THRESHOLD` is a death; when a
rank dies it sets an abort flag, closes the hub to wake the blocked
survivors, and applies the configured policy:

``fail``
    Re-raise the death as :class:`RankFailedError` (the behaviour of a
    non-elastic job: one dead rank kills the run).
``shrink``
    Re-rendezvous the survivors into a smaller world, restore model and
    optimizer state from the last checkpoint, and continue.  Gradient
    averaging rescales automatically — the reducer divides by the *new*
    group size.
``pause_and_wait``
    Re-run at the original world size, as if the scheduler replaced the
    dead worker; state is likewise restored from the checkpoint.

With ``allow_grow=True`` the supervisor also runs the reverse
transition: a :func:`~repro.resilience.faults.rejoin_rank` fault rule
marks a spot as *returning* (the preempted instance came back, or the
scheduler granted capacity).  When a rejoin matures mid-generation the
supervisor aborts the running generation exactly as it would for a
death — only this abort carries ``grow`` instead of ``died`` — and at
the boundary the returning spots are admitted, membership is densely
re-numbered, and every member (survivor or returner) passes a
store-based re-rendezvous barrier before the new group forms.  A rank
whose heartbeat merely *flapped* (stale long enough to trip the
monitor, fresh again by the boundary) is kept in the membership and
reported under ``flapped`` rather than treated as dead.

State travels between generations exclusively through checkpoints —
surviving ranks never try to salvage in-memory state from a torn
iteration, which is exactly how real elastic runtimes avoid mixing
half-averaged gradients into the restored trajectory.  The one carrier
is the :class:`~repro.checkpoint.engine.CheckpointEngine`, one per rank
per generation, writing synchronously (so the restart iteration is
deterministic): manifest-committed generations, per-file CRC, a torn
newest generation falls back to the one before, the fault plan's
``corrupt_file`` / ``delay_write`` rules apply to every write, and with
``replication_factor > 1`` buddy replication makes losing any single
rank's local files survivable.  A DDP model saves one full payload on
rank 0; a ``repro.sharded`` wrapper saves one shard per rank, without
communication.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.checkpoint.engine import CheckpointEngine
from repro.comm.distributed import (
    destroy_process_group,
    enter_context,
    init_process_group,
)
from repro.comm.liveness import HeartbeatMonitor
from repro.comm.store import Store
from repro.comm.transport import TransportHub
from repro.core.ddp import DistributedDataParallel
from repro.resilience.faults import FaultPlan, InjectedRankFailure
from repro.sharded.wrapper import ShardedWrapper
from repro.utils.logging import logger


class RankFailedError(RuntimeError):
    """A rank died and the policy does not allow recovery.

    Carries the dead ``spots`` (original rank ids) and the generation in
    which the deaths happened.
    """

    def __init__(self, spots: List[int], generation: int, reason: str):
        super().__init__(
            f"rank(s) {spots} died in generation {generation}: {reason}"
        )
        self.spots = list(spots)
        self.generation = generation


class _GenerationAborted(Exception):
    """Internal: the supervisor aborted this generation (not an error)."""


@dataclass
class ElasticConfig:
    """Knobs for :func:`run_elastic`.

    ``policy`` is ``"fail"``, ``"shrink"``, or ``"pause_and_wait"``.
    ``min_world_size`` bounds shrinking; dropping below it raises.
    ``max_restarts`` caps re-rendezvous attempts (generations beyond the
    first), so a deterministic repeated death cannot loop forever.
    ``checkpoint_every`` is the save cadence in iterations (every rank
    calls the engine at the same cadence, derived only from the
    iteration counter).  Dead-rank detection is fixed: a beat every
    :data:`~repro.comm.liveness.BEAT_INTERVAL`, death after a
    :data:`~repro.comm.liveness.MISS_THRESHOLD` miss, far below the
    transport timeout.  ``ddp_kwargs`` forward to the DDP wrapper.

    ``wrapper`` overrides the model wrap: ``wrapper(module, group) ->
    model`` (called instead of the default DDP construction, so e.g.
    ``repro.sharded`` stages can run elastically).  A
    :class:`~repro.sharded.wrapper.ShardedWrapper` owns its optimizer
    (``setup`` returns ``(module, None)``) and every rank checkpoints
    its own shard (``save_sharded``); for anything else rank 0
    checkpoints the replicated module and optimizer (``save_full``).

    ``allow_grow`` enables scale-up: matured
    :func:`~repro.resilience.faults.rejoin_rank` rules admit returning
    spots at generation boundaries, up to ``max_world_size`` (None
    leaves growth unbounded).  ``replication_factor`` /
    ``checkpoint_keep`` configure the
    :class:`~repro.checkpoint.engine.CheckpointEngine`, whose files
    live under :attr:`engine_dir`.
    """

    policy: str = "shrink"
    min_world_size: int = 1
    max_restarts: int = 5
    checkpoint_every: int = 1
    checkpoint_dir: str = "."
    backend: str = "gloo"
    timeout: float = 10.0
    ddp_kwargs: Dict = field(default_factory=dict)
    wrapper: Optional[Callable] = None
    allow_grow: bool = False
    max_world_size: Optional[int] = None
    replication_factor: int = 1
    checkpoint_keep: int = 2

    def __post_init__(self):
        if self.policy not in ("fail", "shrink", "pause_and_wait"):
            raise ValueError(
                f"unknown elastic policy {self.policy!r}; "
                "options: fail, shrink, pause_and_wait"
            )
        if self.min_world_size < 1:
            raise ValueError("min_world_size must be >= 1")
        if (
            self.max_world_size is not None
            and self.max_world_size < self.min_world_size
        ):
            raise ValueError(
                f"max_world_size={self.max_world_size} is below "
                f"min_world_size={self.min_world_size}"
            )
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.checkpoint_keep < 1:
            raise ValueError("checkpoint_keep must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")

    @property
    def engine_dir(self) -> str:
        """Root directory of the checkpoint engine: where training state
        lives between generations (``rank{r}/ckpt-{n}/`` + manifests)."""
        return os.path.join(self.checkpoint_dir, "engine")


@dataclass
class ElasticContext:
    """What a rank thread knows about its place in the elastic run.

    ``rank``/``world_size`` are the *current generation's* coordinates
    (ranks are renumbered densely after a shrink); ``spot`` is the
    original rank id from generation 0, stable across generations.
    """

    rank: int
    world_size: int
    generation: int
    spot: int
    store: Store
    namespace: str
    group: object = None
    #: The rank's liveness monitor; step functions may call
    #: ``ctx.heartbeat.suspend(seconds)`` to simulate a flapping rank.
    heartbeat: object = None


@dataclass
class ElasticResult:
    """Outcome of :func:`run_elastic`."""

    completed: bool
    iterations: int
    final_world_size: int
    generations: List[dict]
    losses: List[float]
    checkpoint_path: str

    @property
    def final_loss(self) -> Optional[float]:
        """Last recorded per-iteration loss (rank 0's), or None."""
        return self.losses[-1] if self.losses else None

    @property
    def deaths(self) -> List[int]:
        """Every spot that died, in generation order."""
        return [s for g in self.generations for s in g.get("died", [])]

    @property
    def admissions(self) -> List[int]:
        """Every spot admitted by a grow, in generation order."""
        return [s for g in self.generations for s in g.get("admitted", [])]

    @property
    def flaps(self) -> List[int]:
        """Every spot that flapped (declared dead, then recovered)."""
        return [s for g in self.generations for s in g.get("flapped", [])]


def _classify(error: BaseException) -> str:
    """Death flag kind for a rank-thread exception."""
    return "died" if isinstance(error, InjectedRankFailure) else "failed"


def run_elastic(
    world_size: int,
    setup: Callable,
    step: Callable,
    total_iterations: int,
    config: Optional[ElasticConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> ElasticResult:
    """Run an elastic DDP training session and return its outcome.

    Parameters
    ----------
    world_size:
        Initial number of ranks.
    setup:
        ``setup(ctx: ElasticContext) -> (module, optimizer)`` — build
        the *local* model and its optimizer.  Called fresh on every rank
        in every generation; replicas must construct identically (the
        DDP wrap broadcasts rank 0's state regardless, and checkpoint
        restore then overwrites it with the saved trajectory).
    step:
        ``step(ctx, model, optimizer, iteration) -> float`` — one
        training iteration over the DDP-wrapped ``model``; returns the
        loss.  Shard data by ``ctx.rank`` / ``ctx.world_size``.
    total_iterations:
        Global iteration budget; checkpoints carry the cursor across
        generations, so a shrink resumes where the last save left off.
    config:
        :class:`ElasticConfig`; defaults are test-friendly.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan`, installed
        on every generation's hub (rule trigger counts persist across
        generations, so ``times=1`` means once per *session*).
    """
    config = config or ElasticConfig()
    if (
        config.max_world_size is not None
        and world_size > config.max_world_size
    ):
        raise ValueError(
            f"initial world_size={world_size} exceeds "
            f"max_world_size={config.max_world_size}"
        )
    spots = list(range(world_size))
    generations: List[dict] = []
    losses: List[float] = []
    first = 0  # the iteration losses[0] belongs to
    generation = 0

    while True:
        if generation > config.max_restarts:
            raise RankFailedError(
                spots, generation,
                f"exceeded max_restarts={config.max_restarts}",
            )
        report = _run_generation(
            generation, spots, setup, step, total_iterations, config,
            fault_plan,
        )
        generations.append(report)
        start = report["start_iteration"]
        if start is not None:
            # Iterations from the resumed checkpoint on ran again: a peer
            # died before saving what rank 0 had already reported.
            kept = max(0, start - first) if losses else 0
            del losses[kept:]
            first = start - kept
        losses.extend(report["losses"])
        if report["completed"]:
            return ElasticResult(
                completed=True,
                iterations=report["end_iteration"],
                final_world_size=len(spots),
                generations=generations,
                losses=losses,
                checkpoint_path=config.engine_dir,
            )

        died = report["died"]
        failed = report["failed"]
        if not died and failed:
            # A real (non-injected, non-collateral) failure: propagate.
            spot, error = failed[0]
            raise RuntimeError(
                f"rank spot {spot} failed in generation {generation}: {error}"
            ) from error
        if died:
            reason = (
                "; ".join(report["death_reasons"].values()) or "heartbeat lost"
            )
            if config.policy == "fail":
                raise RankFailedError(died, generation, reason)
            if config.policy == "shrink":
                spots = [s for s in spots if s not in died]
                if len(spots) < config.min_world_size:
                    raise RankFailedError(
                        died, generation,
                        f"only {len(spots)} survivor(s) left, below "
                        f"min_world_size={config.min_world_size} ({reason})",
                    )
                logger.warning(
                    "elastic: generation %d lost rank spot(s) %s (%s); "
                    "shrinking to world_size=%d",
                    generation, died, reason, len(spots),
                )
            else:  # pause_and_wait: respawn at the original membership.
                logger.warning(
                    "elastic: generation %d lost rank spot(s) %s (%s); "
                    "restarting at world_size=%d as if replaced",
                    generation, died, reason, len(spots),
                )
        elif report["flapped"]:
            logger.warning(
                "elastic: generation %d aborted for flapping rank spot(s) "
                "%s; heartbeats recovered, restarting with the same "
                "membership", generation, report["flapped"],
            )
        # Grow admission (scale-up): consume matured rejoin requests at
        # the boundary, capped by remaining max_world_size capacity.
        # Runs after the shrink filter so a kill + rejoin in the same
        # generation nets out correctly.
        if config.allow_grow and fault_plan is not None:
            capacity = (
                None
                if config.max_world_size is None
                else max(0, config.max_world_size - len(spots))
            )
            admitted = fault_plan.consume_rejoins(
                generation, exclude=spots, limit=capacity
            )
            if admitted:
                spots = sorted(set(spots) | set(admitted))
                logger.warning(
                    "elastic: generation %d admitting returning rank "
                    "spot(s) %s; growing to world_size=%d",
                    generation, admitted, len(spots),
                )
            report["admitted"] = admitted
        generation += 1


def _run_generation(
    generation: int,
    spots: List[int],
    setup: Callable,
    step: Callable,
    total_iterations: int,
    config: ElasticConfig,
    fault_plan: Optional[FaultPlan],
) -> dict:
    """Run one generation to completion or first detected death."""
    world = len(spots)
    ns = f"elastic/gen{generation}"
    store = Store(timeout=config.timeout)
    hub = TransportHub(world, default_timeout=config.timeout)
    if fault_plan is not None:
        hub.install_fault_plan(fault_plan)
    abort_key = f"{ns}/abort"
    rank0_losses: List[float] = []
    start_iteration: List[Optional[int]] = [None]
    end_iteration = [0]
    errors: Dict[int, BaseException] = {}
    engine_stats: Dict[int, dict] = {}
    lock = threading.Lock()

    def runner(rank: int) -> None:
        ctx = ElasticContext(
            rank=rank,
            world_size=world,
            generation=generation,
            spot=spots[rank],
            store=store,
            namespace=ns,
        )
        liveness = enter_context(rank, world, store, hub).monitor
        liveness.beat(store, ns)
        ctx.heartbeat = liveness
        engine: Optional[CheckpointEngine] = None
        try:
            # Re-rendezvous barrier: every admitted member — survivor or
            # returning spot — registers its join before the group
            # forms, so a grown generation cannot start lopsided.
            store.set(f"{ns}/join/rank{rank}", {"spot": spots[rank]})
            store.wait(
                [f"{ns}/join/rank{r}" for r in range(world)],
                timeout=config.timeout,
            )
            group = init_process_group(
                config.backend,
                timeout=config.timeout,
                group_id=f"e{generation}",
            )
            ctx.group = group
            module, optimizer = setup(ctx)

            if config.wrapper is not None:
                model = config.wrapper(module, group)
            else:
                model = DistributedDataParallel(
                    module, process_group=group, **config.ddp_kwargs
                )
            sharded = isinstance(model, ShardedWrapper)
            engine = CheckpointEngine(
                config.engine_dir,
                rank=rank,
                world=world,
                hub=hub,
                replication_factor=min(config.replication_factor, world),
                keep=config.checkpoint_keep,
                async_write=False,
                fault_plan=fault_plan,
            )
            info = engine.load_latest(
                module=module,
                optimizer=optimizer,
                model=model if sharded else None,
            )
            start = 0 if info is None else info["iteration"]
            if rank == 0:
                start_iteration[0] = end_iteration[0] = start
            for iteration in range(start, total_iterations):
                if store.try_get(abort_key) is not None:
                    raise _GenerationAborted()
                loss = step(ctx, model, optimizer, iteration)
                done = iteration + 1
                if rank == 0:
                    rank0_losses.append(float(loss))
                    end_iteration[0] = done
                if done % config.checkpoint_every and done != total_iterations:
                    continue  # not a save boundary
                # Every rank saves at the same cadence, without
                # communication: sharded mode writes one shard each, full
                # mode rank 0's payload and empty manifests elsewhere.
                if sharded:
                    engine.save_sharded(model, iteration=done)
                else:
                    engine.save_full(module, optimizer, iteration=done)
            store.set(f"{ns}/done/rank{rank}", True)
        except _GenerationAborted:
            store.set(f"{ns}/done/rank{rank}", "aborted")
        except BaseException as exc:  # noqa: BLE001 - classified below
            kind = _classify(exc)
            if kind != "died" and store.try_get(abort_key) is not None:
                # Collateral damage of the supervisor's hub.close() (or
                # of the dead peer): this rank is a survivor.
                store.set(f"{ns}/done/rank{rank}", "aborted")
            else:
                with lock:
                    errors[rank] = exc
                store.set(
                    f"{ns}/dead/rank{rank}",
                    {"kind": kind, "reason": f"{type(exc).__name__}: {exc}"},
                )
            # A dead process takes its heartbeat with it.
            liveness.stop()
        finally:
            if engine is not None:
                with lock:
                    engine_stats[rank] = engine.stats()
                engine.close(timeout=config.timeout)
            destroy_process_group()  # stops the liveness thread

    threads = [
        threading.Thread(
            target=runner, args=(r,), name=f"elastic-g{generation}-rank{r}",
            daemon=True,
        )
        for r in range(world)
    ]
    monitor = HeartbeatMonitor(store, ns, list(range(world)))
    for thread in threads:
        thread.start()

    aborted = False
    abort_dead: List[int] = []
    grow_ready: List[int] = []
    deadline = time.monotonic() + config.timeout * (4 + total_iterations * 0.5)
    while any(t.is_alive() for t in threads):
        time.sleep(0.02)
        dead_now = _detect_deaths(store, ns, world, monitor)
        if dead_now and not aborted:
            abort_dead = dead_now
            store.set(abort_key, {"generation": generation, "died": dead_now})
            hub.close()
            aborted = True
        if (
            not aborted
            and config.allow_grow
            and fault_plan is not None
            and (
                config.max_world_size is None
                or world < config.max_world_size
            )
        ):
            # A matured rejoin aborts the running generation exactly
            # like a death would — the grow itself happens at the
            # boundary, where run_elastic consumes the request.  At
            # zero max_world_size capacity the request stays pending
            # (a later shrink may free a slot) and the generation is
            # left alone.
            matured = fault_plan.peek_rejoins(generation, exclude=spots)
            if matured:
                grow_ready = matured
                store.set(
                    abort_key, {"generation": generation, "grow": matured}
                )
                hub.close()
                aborted = True
        if time.monotonic() > deadline:
            store.set(abort_key, {"generation": generation, "died": []})
            hub.close()
            aborted = True
            break
    for thread in threads:
        thread.join(timeout=config.timeout)
    stuck = [t.name for t in threads if t.is_alive()]
    if stuck:
        raise TimeoutError(
            f"elastic generation {generation}: rank thread(s) {stuck} did "
            "not exit after abort"
        )

    died_ranks = _detect_deaths(store, ns, world, monitor)
    # A rank that tripped the monitor mid-generation but is alive again
    # at the boundary (fresh beat, done flag set) was flapping, not
    # dead: it stays in the membership.
    flapped = sorted(
        spots[r] for r in abort_dead if r not in died_ranks
    )
    death_reasons = {}
    failed = []
    for rank, error in sorted(errors.items()):
        if _classify(error) == "died" or rank in died_ranks:
            death_reasons[spots[rank]] = f"{type(error).__name__}: {error}"
        else:
            failed.append((spots[rank], error))
    for rank in died_ranks:
        death_reasons.setdefault(spots[rank], "heartbeat lost")
    completed = not died_ranks and not failed and all(
        store.try_get(f"{ns}/done/rank{r}") is True for r in range(world)
    )
    hub.close()
    return {
        "generation": generation,
        "world_size": world,
        "spots": list(spots),
        "completed": completed,
        "start_iteration": start_iteration[0],
        "end_iteration": end_iteration[0],
        "losses": rank0_losses,
        "died": sorted(spots[r] for r in died_ranks),
        "failed": failed,
        "death_reasons": death_reasons,
        "flapped": flapped,
        "grow_ready": grow_ready,
        "faults": fault_plan.stats() if fault_plan is not None else None,
        "checkpoint": dict(sorted(engine_stats.items())) or None,
    }


def _detect_deaths(store, ns: str, world: int, monitor) -> List[int]:
    """Ranks currently considered dead: explicit flags + stale heartbeats."""
    dead = []
    for rank in range(world):
        flag = store.try_get(f"{ns}/dead/rank{rank}")
        if flag is not None and flag.get("kind") == "died":
            dead.append(rank)
    for rank in monitor.dead_ranks():
        if rank in dead:
            continue
        if store.try_get(f"{ns}/done/rank{rank}") is not None:
            continue
        if store.try_get(f"{ns}/dead/rank{rank}") is not None:
            continue  # flagged "failed": collateral, not a death
        dead.append(rank)
    return sorted(dead)
