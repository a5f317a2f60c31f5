"""Joint representation learning and online clustering for unsupervised
temporal activity segmentation.

The pipeline: embed video frames with a small MLP, solve optimal transport
with a temporal prior for pseudo-label codes, train against those codes
plus a temporal coherence loss, then Viterbi-decode cluster log-probabilities
into ordered segments and score them with Hungarian-matched MOF / F1.
"""

from .dataio import (
    DatasetCatalog,
    FeatureSequence,
    LabelMapping,
    SyntheticSpec,
    generate_synthetic,
    load_catalog,
    write_catalog,
    write_features,
)
from .decode import SegmentationResult, viterbi_fixed_order
from .encoder import AdamState, EncoderParams, init_params, load_checkpoint, save_checkpoint
from .errors import DataError, NumericalError, UsageError
from .evaluate import EvalReport, evaluate_activity, hungarian_match, mof, segment_f1
from .losses import LossConfig, cross_entropy, temporal_coherence
from .sampler import Batch, build_batch, sample_ordered, sample_positive
from .trainer import TrainConfig, TrainResult, embed_dataset, train
from .transport import (
    CodeMatrix,
    TransportConfig,
    marginal_error,
    sinkhorn_ot,
    sinkhorn_tot,
    temporal_prior,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "Batch",
    "CodeMatrix",
    "DataError",
    "DatasetCatalog",
    "EncoderParams",
    "EvalReport",
    "FeatureSequence",
    "LabelMapping",
    "LossConfig",
    "NumericalError",
    "SegmentationResult",
    "SyntheticSpec",
    "TrainConfig",
    "TrainResult",
    "TransportConfig",
    "UsageError",
    "build_batch",
    "cross_entropy",
    "embed_dataset",
    "evaluate_activity",
    "generate_synthetic",
    "hungarian_match",
    "init_params",
    "load_catalog",
    "load_checkpoint",
    "marginal_error",
    "mof",
    "sample_ordered",
    "sample_positive",
    "save_checkpoint",
    "segment_f1",
    "sinkhorn_ot",
    "sinkhorn_tot",
    "temporal_coherence",
    "temporal_prior",
    "train",
    "viterbi_fixed_order",
    "write_catalog",
    "write_features",
]
