"""Meta-model layer: feature extraction and the two trainable classifiers.

Class probabilities are indexed by damage level ordinal, each entry in
[0, 1], summing to 1 within 1e-9: a 4-tuple from the one-row predicts, a row
of the (rows, 4) array from the batch ones.

The training hyperparameters live in `ruinscore.meta.hyper`, which only
train-meta imports: loading a model and predicting never build them.
"""

from .features import FEATURE_DIM, FEATURE_LAYOUT, FEATURE_NAMES, extract_features
from .gbdt import (
    GBDT_FORMAT,
    GbdtModel,
    predict_gbdt,
    predict_gbdt_batch,
    train_gbdt,
)
from .logreg import (
    LOGREG_FORMAT,
    LogRegModel,
    predict_logreg,
    predict_logreg_batch,
    train_logreg,
)
from .serialize import load_model, model_to_json, predict_batch, save_model, training_accuracy

__all__ = [
    "FEATURE_DIM",
    "FEATURE_LAYOUT",
    "FEATURE_NAMES",
    "GBDT_FORMAT",
    "LOGREG_FORMAT",
    "GbdtModel",
    "LogRegModel",
    "extract_features",
    "load_model",
    "model_to_json",
    "predict_batch",
    "predict_gbdt",
    "predict_gbdt_batch",
    "predict_logreg",
    "predict_logreg_batch",
    "save_model",
    "train_gbdt",
    "train_logreg",
    "training_accuracy",
]
