"""Baseline recommenders (paper Sec. IV-A2) plus the shared trainer.

Traditional ID-based: Caser, HGN, GRU4Rec, BERT4Rec, SASRec, FMLP-Rec,
FDSA, S3-Rec.  Generative: P5-CID, TIGER.  Retrieval: DSSM (Fig. 3).
"""

from .base import SequentialRecommender
from .bert4rec import BERT4Rec
from .caser import Caser
from .dssm import DSSM, DSSMConfig
from .fdsa import FDSA
from .fmlp import FMLP, FilterLayer
from .generative import (
    IndexTokenSpace,
    build_cooccurrence_matrix,
    collaborative_index_set,
    spectral_cluster,
)
from .gru4rec import GRU4Rec
from .hgn import HGN
from .p5cid import P5CID, P5CIDConfig
from .s3rec import S3Rec
from .sasrec import SASRec
from .tiger import TIGER, TIGERConfig
from .trainer import BaselineTrainer, BaselineTrainerConfig

__all__ = [
    "SequentialRecommender",
    "BaselineTrainer",
    "BaselineTrainerConfig",
    "Caser",
    "HGN",
    "GRU4Rec",
    "BERT4Rec",
    "SASRec",
    "FMLP",
    "FilterLayer",
    "FDSA",
    "S3Rec",
    "P5CID",
    "P5CIDConfig",
    "TIGER",
    "TIGERConfig",
    "DSSM",
    "DSSMConfig",
    "IndexTokenSpace",
    "build_cooccurrence_matrix",
    "collaborative_index_set",
    "spectral_cluster",
]
