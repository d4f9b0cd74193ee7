import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionqa.config import model_profile
from fusionqa.images import Image
from fusionqa.model import MultimodalTransformer
from fusionqa.synthetic import SceneSpec, render_scene
from fusionqa.tensor import Rng, backward, no_grad
from fusionqa.training import AdamW, clone_model, param_lrs
from fusionqa.vision import encode_image, encode_images, image_rows, patchify

from conftest import count_encode_image, make_tiny_config
from tensor_reference import tsum


def test_patchify_224_16():
    img = Image(np.zeros((224, 224, 3), dtype=np.float32))
    patches = patchify(img, 16)
    assert patches.shape == (196, 768)


def test_patchify_32_8():
    img = Image(np.zeros((32, 32, 3), dtype=np.float32))
    assert patchify(img, 8).shape == (16, 192)


def test_patchify_constant_image_identical_rows():
    img = Image(np.full((16, 16, 3), 0.25, dtype=np.float32))
    patches = patchify(img, 8)
    assert np.all(patches == patches[0])


def test_patchify_layout_row_major_channel_last():
    # pixel (0, 0) occupies the first 3 entries of patch 0; pixel (0, 1)
    # the next 3; patch order runs across the top row of the grid first
    px = np.arange(8 * 8 * 3, dtype=np.float32).reshape(8, 8, 3)
    img = Image(px / px.max())
    patches = patchify(img, 4)
    assert patches.shape == (4, 48)
    np.testing.assert_array_equal(patches[0][:3], img.pixels[0, 0])
    np.testing.assert_array_equal(patches[0][3:6], img.pixels[0, 1])
    np.testing.assert_array_equal(patches[1][:3], img.pixels[0, 4])
    np.testing.assert_array_equal(patches[2][:3], img.pixels[4, 0])


def test_patchify_indivisible_rejected():
    img = Image(np.zeros((30, 32, 3), dtype=np.float32))
    with pytest.raises(ValueError, match="30x32.*8x8"):
        patchify(img, 8)


@given(grid_h=st.integers(1, 4), grid_w=st.integers(1, 4), p=st.sampled_from([2, 4, 8]))
@settings(max_examples=40, deadline=None)
def test_patchify_shape_contract(grid_h, grid_w, p):
    img = Image(np.zeros((grid_h * p, grid_w * p, 3), dtype=np.float32))
    patches = patchify(img, p)
    assert patches.shape == (grid_h * grid_w, p * p * 3)


class TestEncodeImage:
    def test_output_shape(self, tiny_model, scene_image_16):
        out = encode_image(tiny_model, scene_image_16)
        cfg = tiny_model.config
        assert out.shape == (cfg.vision.n_patches, cfg.lm.hidden_size)

    def test_eval_determinism(self, tiny_model, scene_image_16):
        a = encode_image(tiny_model, scene_image_16).data
        b = encode_image(tiny_model, scene_image_16).data
        np.testing.assert_array_equal(a, b)

    def test_positional_sensitivity(self, tiny_model):
        # constant image except two swapped patches: outputs differ at those
        # positions because position embeddings break the symmetry
        base = np.full((16, 16, 3), 0.5, dtype=np.float32)
        variant = base.copy()
        variant[:8, :8, :] = 0.9
        swapped = base.copy()
        swapped[:8, 8:, :] = 0.9
        out_a = encode_image(tiny_model, Image(variant)).data
        out_b = encode_image(tiny_model, Image(swapped)).data
        assert not np.allclose(out_a, out_b)

    def test_zeroed_blocks_reduce_to_embedding_plus_positions(self, tiny_vocab, scene_image_16):
        cfg = make_tiny_config(tiny_vocab.size)
        model = MultimodalTransformer.build(cfg, Rng(3))
        for name, p in model.params.items():
            if ".attn." in name or ".mlp." in name:
                p.data[:] = 0.0
        out = encode_image(model, scene_image_16).data

        patches = patchify(scene_image_16, cfg.vision.patch_size)
        emb = patches @ model.params["vision.patch_proj.weight"].data \
            + model.params["vision.patch_proj.bias"].data \
            + model.params["vision.pos_emb"].data
        mu = emb.mean(-1, keepdims=True)
        var = ((emb - mu) ** 2).mean(-1, keepdims=True)
        expected = (emb - mu) / np.sqrt(var + 1e-5) \
            * model.params["vision.final_norm.gamma"].data \
            + model.params["vision.final_norm.beta"].data
        np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-6)

    def test_gradient_flow_respects_freezing(self, fresh_tiny_model, scene_image_16):
        model = fresh_tiny_model
        AdamW(model, param_lrs(model, {"vision": 1e-3}))
        out = encode_image(model, scene_image_16)
        backward(tsum(out))
        assert model.params["vision.patch_proj.weight"].grad is not None
        assert model.params["vision.pos_emb"].grad is not None

        model.zero_grads()
        AdamW(model, param_lrs(model, {"lm": 1e-3}))
        out = encode_image(model, scene_image_16)
        backward(tsum(out))
        assert model.params["vision.patch_proj.weight"].grad is None
        assert model.params["vision.pos_emb"].grad is None

    def test_wrong_image_size_rejected(self, tiny_model, scene_image_32):
        with pytest.raises(ValueError, match="patches"):
            encode_image(tiny_model, scene_image_32)


def _scene_images(size):
    specs = [SceneSpec("red", "square", "top left"), SceneSpec("blue", "circle", "bottom right"),
             SceneSpec("green", "triangle", "bottom left"), SceneSpec("yellow", "square", "top right")]
    return [Image(render_scene(spec).pixels[:size, :size]) for spec in specs]


class TestEncodeImages:
    """The stacked pass: M images in one (M, N, .) run of the encoder."""

    @pytest.mark.parametrize("profile", ["tiny", "desk"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stacked_rows_equal_single_image_rows(self, tiny_vocab, profile, seed):
        if profile == "tiny":
            cfg = make_tiny_config(tiny_vocab.size, dropout=0.1)
        else:
            cfg = model_profile("desk", vocab_size=tiny_vocab.size)
            cfg = dataclasses.replace(cfg, lm=dataclasses.replace(cfg.lm, dropout_rate=0.1))
        model = MultimodalTransformer.build(cfg, Rng(seed))
        images = _scene_images(cfg.vision.image_size)
        stacked = encode_images(model, images)
        n = cfg.vision.n_patches
        assert stacked.shape == (len(images) * n, cfg.lm.hidden_size)
        for i, img in enumerate(images):
            single = encode_image(model, img).data
            assert stacked.data[i * n:(i + 1) * n].tobytes() == single.tobytes()
        # under dropout the stacked pass draws one mask over (M, N, .), so
        # only its one-image call has a per-image counterpart
        one = encode_images(model, images[:1], rng=Rng(seed + 10)).data
        assert one.tobytes() == encode_image(model, images[0], rng=Rng(seed + 10)).data.tobytes()
        assert one.tobytes() != stacked.data[:n].tobytes()


class TestImageRows:
    def test_in_place_weight_change_gives_fresh_rows(self, fresh_tiny_model, scene_image_16,
                                                     monkeypatch):
        model, img = fresh_tiny_model, Image(scene_image_16.pixels.copy())
        encoded = count_encode_image(monkeypatch)
        w = model.params["vision.layer0.mlp.w1"].data
        old = w[0, 0].copy()
        with no_grad():
            first = image_rows(model, [img])[0]
            assert image_rows(model, [img])[0] is first
            w[0, 0] += 0.5
            changed = image_rows(model, [img])[0]
            misses = len(encoded)
            expected = encode_image(model, img)  # counted too: it runs encode_images
            w[0, 0] = old
            again = image_rows(model, [img])[0]
        np.testing.assert_array_equal(changed.data, expected.data)
        assert not np.array_equal(changed.data, first.data)
        assert again is first
        assert misses == 2 and len(encoded) == 3

    def test_models_with_identical_vision_weights_share_rows(self, tiny_vocab, scene_image_16,
                                                             monkeypatch):
        cfg = make_tiny_config(tiny_vocab.size)
        a = MultimodalTransformer.build(cfg, Rng(7))
        b = clone_model(a)
        b.params["lm.embed"].data += 1.0
        AdamW(b, param_lrs(b, {"lm": 1e-3}))
        other = MultimodalTransformer.build(cfg, Rng(8))
        img = Image(scene_image_16.pixels.copy())
        encoded = count_encode_image(monkeypatch)
        with no_grad():
            rows = image_rows(a, [img, img])
        # grad recording on, vision frozen, dropout rate 0: served
        served = image_rows(b, [img], rng=Rng(0))[0]
        assert rows[0] is rows[1] is served
        assert not served.requires_grad and served._vjp is None
        with no_grad():
            image_rows(other, [img])
        assert encoded == [img, img]

    def test_identical_vision_weights_under_another_head_count_get_fresh_rows(
            self, tiny_vocab, scene_image_16):
        # the head count lives in the lm config, not in the vision weights
        two = MultimodalTransformer.build(make_tiny_config(tiny_vocab.size, heads=2), Rng(7))
        four = MultimodalTransformer(make_tiny_config(tiny_vocab.size, heads=4), two.params)
        img = Image(scene_image_16.pixels.copy())
        with no_grad():
            served = image_rows(two, [img])[0]
            rows = image_rows(four, [img])[0]
            np.testing.assert_array_equal(rows.data, encode_image(four, img).data)
        assert not np.array_equal(rows.data, served.data)

    def test_trainable_encoder_gets_taped_rows(self, fresh_tiny_model, scene_image_16,
                                               monkeypatch):
        model, img = fresh_tiny_model, Image(scene_image_16.pixels.copy())
        encoded = count_encode_image(monkeypatch)
        with no_grad():
            served = image_rows(model, [img])[0]
        taped = image_rows(model, [img])[0]
        assert taped is not served and taped._vjp is not None
        np.testing.assert_array_equal(taped.data, served.data)
        assert len(encoded) == 2

    def test_pixels_are_read_only(self, scene_image_16):
        img = Image(scene_image_16.pixels.copy())
        with pytest.raises(ValueError, match="read-only"):
            img.pixels[0, 0, 0] = 1.0
