"""Continual representation learning with delayed-codebook index distillation.

A small, fully deterministic numpy benchmark framework: a dense-network
engine verified by finite differences, K-means codebooks built at task
boundaries, index-prediction distillation during task training, finetune /
LwF / SimCLR baselines, and the continual metrics (average seen accuracy,
maximum forgetting) with linear-probe evaluation.
"""

__version__ = "0.1.0"
