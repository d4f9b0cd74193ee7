import numpy as np
import pytest

from fusionqa import vision
from fusionqa.config import LmConfig, ModelConfig, VisionConfig
from fusionqa.model import MultimodalTransformer
from fusionqa.synthetic import SceneSpec, render_scene
from fusionqa.tensor import Rng
from fusionqa.tokenizer import Vocab

TINY_LINES = [
    "the capital of balor is venta",
    "the animal of balor is fox",
    "the stone of rimek is opal",
    "what is the capital of balor?",
    "what color is the shape in the photo of rimek?",
    "a photo of rimek",
    "a red square",
    "the image shows a blue circle in the top left",
    "answer the question using the given contexts:",
    "red green blue yellow purple orange",
    "describe the image",
]


def encode_every_visit(model, images, rng=None):
    """``vision.image_rows`` without its memo or its stacked pass: one
    ``encode_image`` pass per image, the reference that memo and stacked-pass
    tests monkeypatch in."""
    return [vision.encode_image(model, img, rng=rng) for img in images]


def count_encode_image(monkeypatch) -> list:
    """Replace ``vision.encode_image`` and ``vision.encode_images`` by
    wrappers that append each image given to either to the returned list.
    ``encode_image`` runs through ``encode_images``, so an image it is given
    counts once."""
    seen = []
    one, many = vision.encode_image, vision.encode_images
    inside_one = []

    def counting_one(model, img, rng=None):
        seen.append(img)
        inside_one.append(img)
        try:
            return one(model, img, rng=rng)
        finally:
            inside_one.pop()

    def counting_many(model, images, rng=None):
        if not inside_one:
            seen.extend(images)
        return many(model, images, rng=rng)

    monkeypatch.setattr(vision, "encode_image", counting_one)
    monkeypatch.setattr(vision, "encode_images", counting_many)
    return seen


@pytest.fixture(scope="session")
def tiny_vocab():
    return Vocab.build(TINY_LINES, 220)


def make_tiny_config(vocab_size, d=32, heads=2, layers=1, image_size=16, patch=8,
                     max_len=128, dropout=0.0):
    return ModelConfig(
        vision=VisionConfig(patch_size=patch, image_size=image_size),
        lm=LmConfig(hidden_size=d, n_layers=layers, n_heads=heads, vocab_size=vocab_size,
                    max_len=max_len, dropout_rate=dropout),
    )


@pytest.fixture(scope="session")
def tiny_model(tiny_vocab):
    cfg = make_tiny_config(tiny_vocab.size)
    return MultimodalTransformer.build(cfg, Rng(7))


@pytest.fixture()
def fresh_tiny_model(tiny_vocab):
    cfg = make_tiny_config(tiny_vocab.size)
    return MultimodalTransformer.build(cfg, Rng(7))


@pytest.fixture(scope="session")
def scene_image_16():
    img = render_scene(SceneSpec("red", "square", "top left"))
    from fusionqa.images import Image

    return Image(img.pixels[:16, :16, :])


@pytest.fixture(scope="session")
def scene_image_32():
    return render_scene(SceneSpec("blue", "circle", "bottom right"))
