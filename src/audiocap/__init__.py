"""Convolution-free transformer audio captioning toolkit, desk scale."""

import ctypes
import glob
import os

import numpy as np

from .autodiff import Tensor, backward, no_grad
from .model import CaptionerModel, DecoderConfig, EncoderConfig
from .optim import Adam
from .text import Vocabulary, build_vocabulary, decode, encode, tokenize_caption


def _pin_one_blas_thread() -> bool:
    """Run numpy's bundled OpenBLAS on one thread, whatever
    OPENBLAS_NUM_THREADS says, so a GEMM sums in the same order on every
    machine and outputs are byte-identical across core counts. Calls the
    setter that scipy-openblas exports; returns False, leaving the
    setting alone, when numpy bundles no library exporting it."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            setter = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
        return True
    return False


BLAS_PINNED = _pin_one_blas_thread()

__version__ = "0.1.0"

__all__ = [
    "Adam", "CaptionerModel", "DecoderConfig", "EncoderConfig",
    "Tensor", "Vocabulary", "backward", "build_vocabulary",
    "decode", "encode", "no_grad", "tokenize_caption",
    "__version__",
]
