"""Multi-head consensus-aware visual-semantic embedding, desk scale.

A from-scratch image-text matching stack on a small float64 autodiff
engine: region/Bi-GRU encoders, multi-head self-attention, consensus
embeddings over a concept graph, parameterized fusion, dynamically
weighted ranking losses, cosine-annealed Adam training, and bidirectional
R@K evaluation.
"""

from .autodiff import AdamState, Tape, Tensor, adam_step
from .attention import MhsaParams, attend_and_pool, head_attention_weights
from .config import TrainConfig, load_config, save_config
from .consensus import ConceptGraph, build_graph, consensus_embed, gcn_forward
from .data import Dataset, DatasetManifest, InstancePair, Vocabulary, generate_synthetic, load_dataset
from .encoders import GruGates, PaddedBatch, encode_image, encode_text, gru_step
from .evaluation import RetrievalResult, evaluate, recall_at_k, similarity_matrix
from .fusion import FusionParams, fuse
from .gradcheck import gradient_check, run_suite
from .losses import LossTerms, contrastive_loss, dynamic_weight, kl_loss, total_loss
from .model import Model, load_checkpoint, load_model, model_for, save_checkpoint, save_model
from .training import FitResult, LrSchedule, fit, lr_at

__version__ = "0.1.0"

__all__ = [
    "AdamState", "Tape", "Tensor", "adam_step",
    "MhsaParams", "attend_and_pool", "head_attention_weights",
    "TrainConfig", "load_config", "save_config",
    "ConceptGraph", "build_graph", "consensus_embed", "gcn_forward",
    "Dataset", "DatasetManifest", "InstancePair", "Vocabulary",
    "generate_synthetic", "load_dataset",
    "GruGates", "PaddedBatch", "encode_image", "encode_text", "gru_step",
    "RetrievalResult", "evaluate", "recall_at_k", "similarity_matrix",
    "FusionParams", "fuse",
    "gradient_check", "run_suite",
    "LossTerms", "contrastive_loss", "dynamic_weight", "kl_loss", "total_loss",
    "Model", "load_checkpoint", "load_model", "model_for", "save_checkpoint", "save_model",
    "FitResult", "LrSchedule", "fit", "lr_at",
]
