"""Multimodal retrieve-then-generate question answering.

A patch-transformer vision encoder and an encoder-decoder language model
share one embedding width, so image embeddings are injected directly into
the token sequence at placeholder positions. On top of that backbone sit a
cross-encoder reranker (relative threshold + top-k context selection) and a
generative answerer, trained with a three-stage pretraining schedule and
per-component freezing.
"""

from fusionqa.tensor import Rng, Tensor, backward, no_grad

__all__ = ["Rng", "Tensor", "backward", "no_grad"]

__version__ = "0.1.0"
