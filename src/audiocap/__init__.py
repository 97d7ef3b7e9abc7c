"""Convolution-free transformer audio captioning toolkit, desk scale."""

from .autodiff import Tensor, backward, no_grad
from .model import CaptionerModel, DecoderConfig, EncoderConfig
from .optim import Adam
from .text import Vocabulary, build_vocabulary, decode, encode, tokenize_caption

__version__ = "0.1.0"

__all__ = [
    "Adam", "CaptionerModel", "DecoderConfig", "EncoderConfig",
    "Tensor", "Vocabulary", "backward", "build_vocabulary",
    "decode", "encode", "no_grad", "tokenize_caption",
    "__version__",
]
