"""Static anomaly detectors (kNN, OneClassSVM, MAD-GAN, LSTM-VAE, HMM,
ensemble) and the per-tick streaming adapter used by :mod:`repro.serving`."""

from repro.detectors.base import AnomalyDetector, ThresholdCalibrator
from repro.detectors.knn import KNNClassifierDetector, KNNDistanceDetector, minkowski_distances
from repro.detectors.ocsvm import OneClassSVMDetector, kernel_matrix
from repro.detectors.madgan import (
    InversionState,
    MADGANDetector,
    MADGANTrainingHistory,
    SequenceDiscriminator,
    SequenceGenerator,
)
from repro.detectors.lstm_vae import LSTMVAEDetector
from repro.detectors.hmm import GaussianHMMDetector
from repro.detectors.ensemble import VotingEnsembleDetector
from repro.detectors.streaming import InvalidPartsError, StreamingDetector, StreamVerdict

__all__ = [
    "AnomalyDetector",
    "ThresholdCalibrator",
    "KNNClassifierDetector",
    "KNNDistanceDetector",
    "minkowski_distances",
    "OneClassSVMDetector",
    "kernel_matrix",
    "InversionState",
    "MADGANDetector",
    "MADGANTrainingHistory",
    "SequenceGenerator",
    "SequenceDiscriminator",
    "LSTMVAEDetector",
    "GaussianHMMDetector",
    "VotingEnsembleDetector",
    "InvalidPartsError",
    "StreamingDetector",
    "StreamVerdict",
]
