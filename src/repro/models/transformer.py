"""A tiny transformer encoder classifier (the NLP-side real model).

Structurally a miniature of the paper's BERT workload: token + position
embeddings, multi-head self-attention blocks with LayerNorm and GELU
feed-forwards, mean-pooled classification head.
"""

from __future__ import annotations

import math

import numpy as np

from repro import nn
from repro.autograd import ops
from repro.autograd.tensor import Tensor


class MultiHeadSelfAttention(nn.Module):
    def __init__(self, hidden: int, num_heads: int):
        super().__init__()
        if hidden % num_heads:
            raise ValueError("hidden must be divisible by num_heads")
        self.hidden = hidden
        self.num_heads = num_heads
        self.head_dim = hidden // num_heads
        self.query = nn.Linear(hidden, hidden)
        self.key = nn.Linear(hidden, hidden)
        self.value = nn.Linear(hidden, hidden)
        self.output = nn.Linear(hidden, hidden)

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        # (B, T, H) -> (B, heads, T, head_dim)
        x = x.reshape(batch, seq, self.num_heads, self.head_dim)
        return ops.transpose(x, 1, 2)

    def forward(self, x: Tensor) -> Tensor:
        batch, seq, _ = x.shape
        q = self._split_heads(self.query(x), batch, seq)
        k = self._split_heads(self.key(x), batch, seq)
        v = self._split_heads(self.value(x), batch, seq)
        scores = q @ ops.transpose(k, 2, 3)
        weights = ops.softmax(scores, axis=-1, scale=1.0 / math.sqrt(self.head_dim))
        mixed = weights @ v  # (B, heads, T, head_dim)
        merged = ops.transpose(mixed, 1, 2).reshape(batch, seq, self.hidden)
        return self.output(merged)


class TransformerBlock(nn.Module):
    def __init__(self, hidden: int, num_heads: int, ffn_dim: int):
        super().__init__()
        self.attention = MultiHeadSelfAttention(hidden, num_heads)
        self.norm1 = nn.LayerNorm(hidden)
        self.ffn_in = nn.Linear(hidden, ffn_dim)
        self.ffn_out = nn.Linear(ffn_dim, hidden)
        self.norm2 = nn.LayerNorm(hidden)

    def forward(self, x: Tensor) -> Tensor:
        x = self.norm1(x + self.attention(x))
        hidden = self.ffn_out(ops.gelu(self.ffn_in(x)))
        return self.norm2(x + hidden)


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
