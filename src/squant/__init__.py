"""Quantization-aware training for a micro transformer, with integer kernels.

Subpackage map:

- ``gradtape``: tape-based reverse-mode autodiff over numpy arrays
- ``quant``: symmetric fake quantization with straight-through gradients
- ``kernels``: integer GeMM variants, including a packed 4-bit path
- ``token_bits``: attention-driven per-token bit-width planning
- ``losses``: distillation plus quantization-shaping auxiliary losses
- ``model``: the micro transformer and its quantized forward passes
- ``train``: the run config, synthetic corpus, teacher pretraining, QAT loop, ablations
- ``checkpoint``: binary save/load for weights and calibration state
- ``cli``: the ``squant`` command line entry point
"""

__version__ = "0.1.0"
