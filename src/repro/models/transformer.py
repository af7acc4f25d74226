"""A tiny transformer encoder classifier (the NLP-side real model).

Structurally a miniature of the paper's BERT workload: token + position
embeddings, multi-head self-attention blocks with LayerNorm and GELU
feed-forwards, mean-pooled classification head.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.autograd import ops
from repro.autograd.tensor import Tensor


class MultiHeadSelfAttention(nn.Module):
    """Self-attention over ``num_heads`` heads as one tape node
    (:class:`~repro.autograd.ops.SelfAttention`): the four projections are
    ``Linear`` modules for their parameters and ``state_dict`` names, and
    the node reads their weights and biases directly."""

    def __init__(self, hidden: int, num_heads: int):
        super().__init__()
        if hidden % num_heads:
            raise ValueError("hidden must be divisible by num_heads")
        self.num_heads = num_heads
        self.query = nn.Linear(hidden, hidden)
        self.key = nn.Linear(hidden, hidden)
        self.value = nn.Linear(hidden, hidden)
        self.output = nn.Linear(hidden, hidden)

    def forward(self, x: Tensor) -> Tensor:
        projections = [(layer.weight, layer.bias)
                       for layer in (self.query, self.key, self.value, self.output)]
        return ops.self_attention(x, *projections, num_heads=self.num_heads)


class TransformerBlock(nn.Module):
    """Post-norm encoder block as four tape nodes: attention, residual add
    + ``norm1``, the ``ffn_in`` → GELU → ``ffn_out`` feed-forward, residual
    add + ``norm2``.  Its parameters are read here, inside its own
    ``forward`` — what ZeRO-3, which gathers a block when its ``forward``
    is entered, asks of a unit."""

    def __init__(self, hidden: int, num_heads: int, ffn_dim: int):
        super().__init__()
        self.attention = MultiHeadSelfAttention(hidden, num_heads)
        self.norm1 = nn.LayerNorm(hidden)
        self.ffn_in = nn.Linear(hidden, ffn_dim)
        self.ffn_out = nn.Linear(ffn_dim, hidden)
        self.norm2 = nn.LayerNorm(hidden)

    def forward(self, x: Tensor) -> Tensor:
        norm1, norm2 = self.norm1, self.norm2
        x = ops.add_layer_norm(x, self.attention(x), norm1.weight, norm1.bias, norm1.eps)
        hidden = ops.feed_forward(x, self.ffn_in.weight, self.ffn_in.bias,
                                  self.ffn_out.weight, self.ffn_out.bias)
        return ops.add_layer_norm(x, hidden, norm2.weight, norm2.bias, norm2.eps)


class TinyTransformer(nn.Module):
    """Sequence classifier over integer tokens."""

    def __init__(
        self,
        vocab_size: int = 64,
        max_seq_len: int = 16,
        hidden: int = 32,
        num_heads: int = 4,
        num_layers: int = 2,
        ffn_dim: int = 64,
        num_classes: int = 4,
    ):
        super().__init__()
        self.token_embedding = nn.Embedding(vocab_size, hidden)
        self.position_embedding = nn.Embedding(max_seq_len, hidden)
        self.blocks = nn.ModuleList(
            [TransformerBlock(hidden, num_heads, ffn_dim) for _ in range(num_layers)]
        )
        self.head = nn.Linear(hidden, num_classes)

    def forward(self, tokens) -> Tensor:
        token_ids = tokens.data if isinstance(tokens, Tensor) else np.asarray(tokens)
        seq = token_ids.shape[1]
        positions = np.arange(seq)
        x = self.token_embedding(token_ids) + self.position_embedding(positions)
        for block in self.blocks:
            x = block(x)
        pooled = x.mean(axis=1)
        return self.head(pooled)
