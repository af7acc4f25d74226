"""Transformer training with gradient accumulation (paper §3.2.4).

The paper's NLP workload is BERT; this example trains a miniature
transformer classifier with the ``no_sync`` context manager: each rank
splits its batch into micro-batches, accumulates gradients locally for
all but the last micro-batch, and synchronizes once per effective batch.
The script measures how many bytes each pattern communicates,
demonstrating why skipping synchronization "considerably reduces the
amortized communication overhead".

Run:
    python examples/language_model_grad_accumulation.py
"""

import numpy as np

from repro import nn
from repro.comm import run_distributed
from repro.core import DistributedDataParallel
from repro.models import TinyTransformer
from repro.optim import Adam
from repro.utils import manual_seed

WORLD_SIZE = 2
MICRO_BATCHES = 4
MICRO_BATCH_SIZE = 8
STEPS = 12
VOCAB, SEQ_LEN, CLASSES = 48, 12, 3


def make_data(seed: int):
    """Sequences whose label is the modular class of their token sum."""
    rng = np.random.default_rng(seed)
    total = WORLD_SIZE * MICRO_BATCHES * MICRO_BATCH_SIZE * STEPS
    tokens = rng.integers(0, VOCAB, (total, SEQ_LEN))
    labels = tokens.sum(axis=1) % CLASSES
    return tokens, labels


TOKENS, LABELS = make_data(0)


def train(rank: int, sync_every_micro_batch: bool):
    manual_seed(1)
    model = TinyTransformer(
        vocab_size=VOCAB, max_seq_len=SEQ_LEN, hidden=24, num_heads=4,
        num_layers=2, ffn_dim=48, num_classes=CLASSES,
    )
    ddp = DistributedDataParallel(model, bucket_cap_mb=0.25)
    optimizer = Adam(ddp.parameters(), lr=2e-3)
    loss_fn = nn.CrossEntropyLoss()

    per_rank = len(TOKENS) // WORLD_SIZE
    my_tokens = TOKENS[rank * per_rank : (rank + 1) * per_rank]
    my_labels = LABELS[rank * per_rank : (rank + 1) * per_rank]

    cursor = 0
    last_loss = None
    for _ in range(STEPS):
        optimizer.zero_grad()
        micro = []
        for _ in range(MICRO_BATCHES):
            micro.append(
                (
                    my_tokens[cursor : cursor + MICRO_BATCH_SIZE],
                    my_labels[cursor : cursor + MICRO_BATCH_SIZE],
                )
            )
            cursor += MICRO_BATCH_SIZE

        if sync_every_micro_batch:
            # naive: AllReduce after every micro-batch
            for x, y in micro:
                (loss_fn(ddp(x), y) * (1.0 / MICRO_BATCHES)).backward()
        else:
            # paper §3.2.4: accumulate locally, synchronize once
            with ddp.no_sync():
                for x, y in micro[:-1]:
                    (loss_fn(ddp(x), y) * (1.0 / MICRO_BATCHES)).backward()
            x, y = micro[-1]
            loss = loss_fn(ddp(x), y) * (1.0 / MICRO_BATCHES)
            loss.backward()
            last_loss = loss.item() * MICRO_BATCHES
        optimizer.step()

    return ddp.process_group.bytes_communicated, last_loss


def main() -> None:
    print(f"TinyTransformer, {WORLD_SIZE} ranks, {MICRO_BATCHES} micro-batches/step\n")

    naive = run_distributed(
        WORLD_SIZE, lambda r: train(r, sync_every_micro_batch=True),
        backend="gloo", timeout=300,
    )
    accumulated = run_distributed(
        WORLD_SIZE, lambda r: train(r, sync_every_micro_batch=False),
        backend="gloo", timeout=300,
    )

    naive_bytes = naive[0][0]
    accum_bytes = accumulated[0][0]
    print(f"bytes communicated, sync every micro-batch: {naive_bytes/1e6:8.2f} MB")
    print(f"bytes communicated, no_sync accumulation:   {accum_bytes/1e6:8.2f} MB")
    print(f"communication reduced {naive_bytes / accum_bytes:.1f}x "
          f"(expected ~{MICRO_BATCHES}x: one sync per {MICRO_BATCHES} micro-batches)")
    print(f"final micro-batch loss with accumulation: {accumulated[0][1]:.3f}")


if __name__ == "__main__":
    main()
