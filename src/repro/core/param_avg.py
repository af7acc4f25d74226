"""Parameter averaging: the baseline the paper argues against (§2.2).

Parameter averaging replaces each rank's parameters with the cross-rank
mean *after* the local optimizer step.  It decouples cleanly from the
training loop, but:

* it is **not mathematically equivalent** to local training — optimizer
  state (e.g. momentum) evolves from *local* gradients on each rank and
  diverges, producing conflicting descent directions; and
* computation and communication are forced into non-overlapping phases
  separated by ``optimizer.step()``.

Both defects are measurable with this implementation; see
``tests/test_param_avg.py`` and ``benchmarks/bench_param_averaging.py``.
"""

from __future__ import annotations

from repro.comm.process_group import ReduceOp
from repro.nn.module import Module


def average_parameters(module: Module, process_group) -> None:
    """In-place cross-rank mean of every parameter (one pass, blocking)."""
    for param in module.parameters():
        process_group.allreduce(param, ReduceOp.AVG)


class ParameterAveragingTrainer:
    """Auxiliary-step trainer: local step, then parameter averaging.

    Usage::

        trainer = ParameterAveragingTrainer(model, optimizer, pg)
        loss = loss_fn(model(x), y)
        loss.backward()
        trainer.step()          # optimizer.step() + parameter average
    """

    def __init__(self, module: Module, optimizer, process_group, average_every: int = 1):
        if average_every < 1:
            raise ValueError("average_every must be >= 1")
        self.module = module
        self.optimizer = optimizer
        self.process_group = process_group
        self.average_every = average_every
        self._step_count = 0

    def step(self) -> None:
        """Hard phase boundary: all compute finishes, then all comm runs."""
        self.optimizer.step()
        self._step_count += 1
        if self._step_count % self.average_every == 0:
            average_parameters(self.module, self.process_group)

    def zero_grad(self) -> None:
        self.optimizer.zero_grad()
