"""Delayed-codebook regularization.

At each task boundary the frozen encoder makes one pass over the upcoming
task's data ("epoch 0"), the features are clustered into K codes, and the
codebook is immediately discarded: only the per-sample nearest-code index
survives, keyed by sample id. During the next task a freshly initialized
index-prediction head is trained jointly with the encoder to classify each
sample into its stored index, which transfers knowledge from the previous
model without keeping any copy of it.

The serialized state is a compact binary record:

    offset 0   magic  b"DCIX"
    offset 4   version u8 (currently 1)
    offset 5   K       u32 little-endian
    offset 9   N       u32 little-endian
    offset 13  payload ceil(N * b / 8) bytes, b = ceil(log2 K)

Payload bits are index values in ascending sample-id order, b bits each,
least-significant bit first. Code vectors are never stored anywhere.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ConfigError, ShapeError
from .kmeans import kmeans_fit

STATE_MAGIC = b"DCIX"
STATE_VERSION = 1
HEADER_BYTES = 13
UNPACKED_INDEX_BITS = 64  # width of one stored machine integer


@dataclass(frozen=True)
class PredictorConfig:
    """Shape of the index-prediction head.

    L=1 is a single linear map onto the K codes; L>=2 inserts L-1 rectifier
    hidden layers of `hidden_dim`.
    """

    L: int = 2
    hidden_dim: int = 128
    K: int = 32

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ConfigError(f"L: must be >= 1, got {self.L}")
        if self.hidden_dim < 1:
            raise ConfigError(f"hidden_dim: must be >= 1, got {self.hidden_dim}")
        if self.K < 2:
            raise ConfigError(f"K: must be >= 2, got {self.K}")


@dataclass
class DecorState:
    """Per-sample quantization indices kept between task boundaries.

    `sample_ids` is sorted ascending on construction and `indices[i]` is
    the stored code of `sample_ids[i]`. The codebook that produced the
    indices is intentionally absent: nothing here references code vectors
    or any previous model parameters.
    """

    sample_ids: np.ndarray
    indices: np.ndarray
    K: int

    def __post_init__(self) -> None:
        ids = np.asarray(self.sample_ids, dtype=np.int64)
        idx = np.asarray(self.indices, dtype=np.int64)
        if ids.ndim != 1 or ids.shape != idx.shape:
            raise ShapeError(f"sample_ids {ids.shape} and indices {idx.shape} must be equal 1-D")
        if idx.size and (idx.min() < 0 or idx.max() >= self.K):
            raise ConfigError(f"stored index outside [0, {self.K})")
        order = np.argsort(ids, kind="stable")
        self.sample_ids, self.indices = ids[order], idx[order]
        if np.any(self.sample_ids[1:] == self.sample_ids[:-1]):
            raise ConfigError("sample ids must be unique")

    def __len__(self) -> int:
        return self.sample_ids.size

    def index_for(self, sample_ids) -> np.ndarray:
        """Stored pseudo-labels for a batch of sample ids (any order)."""
        ids = np.asarray(sample_ids, dtype=np.int64)
        pos = np.searchsorted(self.sample_ids, ids)
        found = pos < self.sample_ids.size
        found[found] = self.sample_ids[pos[found]] == ids[found]
        if not found.all():
            raise KeyError(f"sample id {int(ids[~found][0])} has no stored index")
        return self.indices[pos]


def increment(
    encoder: nn.Network,
    new_task_inputs: np.ndarray,
    K: int,
    seed: int,
    sample_ids=None,
) -> DecorState:
    """Boundary step: encode, cluster, keep only the indices.

    One forward pass over the raw task inputs (no augmentation) with the
    encoder untouched; the fitted codebook is dropped on return.
    """
    x = np.asarray(new_task_inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"inputs must be 2-D, got shape {x.shape}")
    if x.shape[0] < K:
        raise ConfigError(f"need at least K={K} samples, got {x.shape[0]}")
    if sample_ids is None:
        sample_ids = np.arange(x.shape[0], dtype=np.int64)
    features = nn.forward(encoder, x)
    _, assignment = kmeans_fit(features, K, seed=seed)
    return DecorState(sample_ids, assignment.indices, K)


def init_index_predictor(cfg: PredictorConfig, in_dim: int, seed: int) -> nn.Network:
    """Fresh predictor head; re-initialized at every task boundary."""
    if in_dim < 1:
        raise ConfigError(f"in_dim must be >= 1, got {in_dim}")
    if cfg.L == 1:
        dims = [in_dim, cfg.K]
    else:
        dims = [in_dim] + [cfg.hidden_dim] * (cfg.L - 1) + [cfg.K]
    return nn.init_network(dims, seed)


def distill_loss(predictor_logits: np.ndarray, state: DecorState, sample_ids):
    """Mean cross-entropy of predictor logits against stored indices.

    The signature admits no model parameters: the only teacher signal is
    the index table inside `state`. Returns (loss, dlogits).
    """
    z = np.asarray(predictor_logits, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != state.K:
        raise ShapeError(f"logits shape {z.shape} does not match K={state.K}")
    targets = state.index_for(sample_ids)
    return nn.mean_cross_entropy(z, targets)


def combined_loss(base: float, pd: float, lam: float, first_task: bool) -> float:
    """Task loss L = L_base + lam * L_pd, with L_pd gated off on the first
    task. L_base is cross-entropy or NT-Xent, depending on the method."""
    if lam < 0:
        raise ConfigError(f"lambda must be >= 0, got {lam}")
    return float(base) if first_task else float(base) + lam * float(pd)


def bits_per_index(K: int) -> int:
    if K < 2:
        raise ConfigError(f"K must be >= 2, got {K}")
    return int(math.ceil(math.log2(K)))


def storage_bits(num_samples: int, K: int, packed: bool = True) -> int:
    """Bits needed to retain one index per sample.

    Packed counts ceil(log2 K) bits per sample; unpacked counts one whole
    machine integer (64 bits) per sample.
    """
    if num_samples < 0:
        raise ConfigError(f"num_samples must be >= 0, got {num_samples}")
    if num_samples == 0:
        return 0
    if K < 2:
        raise ConfigError(f"K must be >= 2, got {K}")
    per = bits_per_index(K) if packed else UNPACKED_INDEX_BITS
    return num_samples * per


def serialize_state(state: DecorState) -> bytes:
    """Pack a state into the binary record documented above."""
    n = len(state)
    b = bits_per_index(state.K)
    idx = state.indices.astype(np.uint64)
    bit_cols = (idx[:, None] >> np.arange(b, dtype=np.uint64)[None, :]) & 1
    payload = np.packbits(bit_cols.astype(np.uint8).reshape(-1), bitorder="little")
    header = struct.pack("<4sBII", STATE_MAGIC, STATE_VERSION, state.K, n)
    return header + payload.tobytes()


def deserialize_state(data: bytes, sample_ids=None) -> DecorState:
    """Inverse of `serialize_state`.

    Indices come back in ascending sample-id order; callers that used
    non-contiguous ids must pass the same ids again (sorted ascending
    internally) to rebind them.
    """
    if len(data) < HEADER_BYTES:
        raise ConfigError(f"record too short for header: {len(data)} bytes")
    magic, version, K, n = struct.unpack("<4sBII", data[:HEADER_BYTES])
    if magic != STATE_MAGIC:
        raise ConfigError(f"bad magic {magic!r}")
    if version != STATE_VERSION:
        raise ConfigError(f"unsupported version {version}")
    b = bits_per_index(K)
    expected = HEADER_BYTES + (n * b + 7) // 8
    if len(data) != expected:
        raise ConfigError(f"record length {len(data)} != expected {expected}")
    raw = np.frombuffer(data[HEADER_BYTES:], dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")[: n * b].reshape(n, b)
    indices = (bits.astype(np.int64) << np.arange(b, dtype=np.int64)[None, :]).sum(axis=1)
    if sample_ids is None:
        sample_ids = np.arange(n, dtype=np.int64)
    else:
        sample_ids = np.sort(np.asarray(sample_ids, dtype=np.int64))
        if sample_ids.size != n:
            raise ConfigError(f"got {sample_ids.size} sample ids for N={n}")
    return DecorState(sample_ids, indices, K)
