import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionqa import model as model_module
from fusionqa.config import GenerationConfig, model_profile
from fusionqa.documents import Document
from fusionqa.generator import generate_ids
from fusionqa.images import Image
from fusionqa.model import (
    DecoderCache,
    EncoderStates,
    MultimodalTransformer,
    _mlp,
    causal_mask,
    decode_step,
    decoder_logits,
    encode_multimodal,
    inject,
    key_padding_mask,
    multi_head_attention,
    parameter_shapes,
)
from fusionqa.tensor import (
    Rng,
    Tensor,
    add,
    attention,
    backward,
    concat,
    dropout,
    embedding_lookup,
    layer_norm,
    linear,
    no_grad,
    slice_,
)
from fusionqa.tokenizer import (
    EOS_ID,
    IMG_ID,
    PAD_ID,
    TokenBatch,
    TokenSequence,
    assemble_qa_input,
    pad_sequences,
)
from fusionqa.reranker import score
from fusionqa.synthetic import SceneSpec, render_scene
from fusionqa.training import AdamW, param_lrs
from fusionqa.vision import encode_image, patchify

from conftest import count_encode_image, make_tiny_config
from tensor_reference import grad_check, mul, tsum


def _slots(length, *rows):
    """(B, L) placeholder mask with each row's (start, length) spans set."""
    mask = np.zeros((len(rows), length), dtype=bool)
    for row, spans in zip(mask, rows):
        for start, n in spans:
            row[start:start + n] = True
    return mask


class TestInject:
    def test_single_span(self):
        text = Tensor(np.arange(4 * 3, dtype=np.float32).reshape(1, 4, 3))
        img = Tensor(np.full((2, 3), -1.0, dtype=np.float32))
        fused = inject(text, [img], np.array([[False, True, True, False]]))
        np.testing.assert_array_equal(fused.data[0, 0], text.data[0, 0])
        np.testing.assert_array_equal(fused.data[0, 1:3], img.data)
        np.testing.assert_array_equal(fused.data[0, 3], text.data[0, 3])

    def test_zero_spans_identity(self):
        text = Tensor(np.random.default_rng(0).normal(size=(1, 5, 4)).astype(np.float32))
        fused = inject(text, [], np.zeros((1, 5), dtype=bool))
        assert fused is text

    def test_two_spans_rows(self):
        rng = np.random.default_rng(2)
        text = Tensor(rng.normal(size=(1, 8, 2)).astype(np.float32))
        a = Tensor(np.ones((2, 2), dtype=np.float32))
        b = Tensor(np.full((2, 2), 2.0, dtype=np.float32))
        fused = inject(text, [a, b], _slots(8, [(1, 2), (5, 2)])).data[0]
        np.testing.assert_array_equal(fused[1:3], a.data)
        np.testing.assert_array_equal(fused[5:7], b.data)
        outside = [0, 3, 4, 7]
        np.testing.assert_array_equal(fused[outside], text.data[0, outside])

    def test_mismatched_span_count_rejected(self):
        text = Tensor(np.zeros((1, 4, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="2 image rows for 4 placeholders"):
            inject(text, [Tensor(np.zeros((2, 2), dtype=np.float32))], np.ones((1, 4), bool))

    def test_mismatched_span_length_rejected(self):
        text = Tensor(np.zeros((1, 4, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="3 image rows for 2 placeholders"):
            inject(text, [Tensor(np.zeros((3, 2), dtype=np.float32))], _slots(4, [(0, 2)]))

    def test_inputs_unmodified(self):
        rng = np.random.default_rng(1)
        text_arr = rng.normal(size=(1, 6, 3)).astype(np.float32)
        img_arr = rng.normal(size=(2, 3)).astype(np.float32)
        text, img = Tensor(text_arr.copy()), Tensor(img_arr.copy())
        inject(text, [img], _slots(6, [(2, 2)]))
        np.testing.assert_array_equal(text.data, text_arr)
        np.testing.assert_array_equal(img.data, img_arr)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_injection_exactness_property(self, data):
        length = data.draw(st.integers(1, 20))
        d = data.draw(st.sampled_from([2, 4, 8]))
        # carve non-overlapping spans; adjacent ones make one longer run of
        # placeholders, which the image rows fill in order all the same
        spans = []
        cursor = 0
        while cursor < length:
            start = data.draw(st.integers(cursor, length))
            if start >= length:
                break
            span_len = data.draw(st.integers(1, length - start))
            if data.draw(st.booleans()):
                spans.append((start, span_len))
                cursor = start + span_len
            else:
                cursor = start + 1
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        text = Tensor(rng.normal(size=(1, length, d)).astype(np.float32))
        imgs = [Tensor(rng.normal(size=(l, d)).astype(np.float32)) for _, l in spans]
        fused = inject(text, imgs, _slots(length, spans))
        expected = text.data.copy()
        for (start, l), img in zip(spans, imgs):
            expected[0, start:start + l] = img.data
        np.testing.assert_array_equal(fused.data, expected)

    def test_batched_rows_equal_per_row_injection(self):
        rng = np.random.default_rng(3)
        text = Tensor(rng.normal(size=(3, 6, 2)).astype(np.float32))
        imgs = [Tensor(rng.normal(size=(2, 2)).astype(np.float32)) for _ in range(3)]
        slots = _slots(6, [(1, 2)], [], [(0, 2), (4, 2)])
        fused = inject(text, imgs, slots).data
        assert fused.shape == (3, 6, 2)
        rows = [imgs[:1], [], imgs[1:]]
        for b in range(3):
            alone = inject(Tensor(text.data[b:b + 1]), rows[b], slots[b:b + 1]).data
            np.testing.assert_array_equal(fused[b], alone[0])

    def test_batched_injection_gradient(self):
        rng = np.random.default_rng(4)
        text = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True, dtype=np.float64)
        img = Tensor(rng.normal(size=(2, 3)), requires_grad=True, dtype=np.float64)
        weight = Tensor(rng.normal(size=(2, 5, 3)), dtype=np.float64)

        def f(params):
            return tsum(mul(inject(params[0], [params[1]], _slots(5, [], [(2, 2)])), weight))

        assert grad_check(f, [text, img]) < 1e-8

    @pytest.mark.parametrize("spans", [[[(1, 3), (5, 2)]], [[(1, 3)], [(0, 2), (4, 3)]]],
                             ids=["one_row", "batched"])
    def test_gather_bit_identical_to_embedding_lookup(self, monkeypatch, spans):
        # the injection index never repeats, so scattering its gradient by
        # assignment gives embedding_lookup's np.add.at result bit for bit
        rng = np.random.default_rng(5)
        shape = (len(spans), 7, 4)
        text_arr = rng.normal(size=shape).astype(np.float32)
        lengths = [n for row in spans for _, n in row]
        img_arrs = [rng.normal(size=(n, 4)).astype(np.float32) for n in lengths]
        weight = Tensor(rng.normal(size=shape).astype(np.float32))

        def run():
            text = Tensor(text_arr, requires_grad=True)
            imgs = [Tensor(a, requires_grad=True) for a in img_arrs]
            out = inject(text, imgs, _slots(7, *spans))
            backward(tsum(mul(out, weight)))
            return [t.tobytes() for t in [out.data, text.grad] + [i.grad for i in imgs]]

        gathered = run()
        monkeypatch.setattr(model_module, "take_rows", embedding_lookup)
        assert gathered == run()


class TestEncoder:
    def test_shape_preserved_and_deterministic(self, tiny_model):
        seq = TokenSequence(np.array([3, 5, 6, 7, 1]))
        enc1 = encode_multimodal(tiny_model, seq)
        enc2 = encode_multimodal(tiny_model, seq)
        # a lone sequence encodes as a batch of one
        assert enc1.states.shape == (1, 5, tiny_model.config.lm.hidden_size)
        np.testing.assert_array_equal(enc1.states.data, enc2.states.data)

    def test_masked_pads_do_not_influence_unmasked(self, tiny_vocab):
        cfg = make_tiny_config(tiny_vocab.size)
        model = MultimodalTransformer.build(cfg, Rng(11))
        ids = np.array([[3, 5, 6, PAD_ID, PAD_ID]])
        mask = np.array([[1, 1, 1, 0, 0]])
        seq = TokenBatch(ids, mask)
        base = encode_multimodal(model, seq).states.data[:, :3].copy()
        # changing the pad embedding must not leak into unmasked outputs
        model.params["lm.embed"].data[PAD_ID] += 7.5
        perturbed = encode_multimodal(model, seq).states.data[:, :3]
        np.testing.assert_allclose(base, perturbed, atol=1e-6)

    def test_cls_positions_keep_padded_keys_out(self, tiny_vocab):
        # given positions the encoder returns those rows of each sequence,
        # (B, 1, d) for <cls> with its mask column, as the full pass computes
        # them; the cut last layer still reads every real key and no padded one
        model = MultimodalTransformer.build(make_tiny_config(tiny_vocab.size, layers=2),
                                            Rng(11), dtype=np.float64)
        cls = slice(0, 1)
        ids = np.array([[3, 5, 6, 7, EOS_ID], [3, 8, EOS_ID, PAD_ID, PAD_ID]])
        mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]])
        enc = encode_multimodal(model, TokenBatch(ids, mask), positions=cls)
        assert enc.states.shape == (2, 1, model.config.lm.hidden_size)
        np.testing.assert_array_equal(enc.attention_mask, [[1], [1]])
        full = encode_multimodal(model, TokenBatch(ids, mask)).states.data[:, cls]
        np.testing.assert_allclose(enc.states.data, full, rtol=0, atol=1e-10)
        other_pads = ids.copy()
        other_pads[1, 3:] = [9, 10]
        same = encode_multimodal(model, TokenBatch(other_pads, mask), positions=cls)
        np.testing.assert_array_equal(same.states.data, enc.states.data)
        unmasked = encode_multimodal(model, TokenBatch(other_pads, np.ones_like(mask)),
                                     positions=cls)
        assert np.abs(unmasked.states.data[1] - enc.states.data[1]).max() > 1e-3

    def test_gradients_reach_embeddings_and_vision(self, fresh_tiny_model, scene_image_16, tiny_vocab):
        model = fresh_tiny_model
        AdamW(model, param_lrs(model, {"lm": 1e-3, "vision": 1e-3}))
        doc = Document(id="i", modality="image", image_path="<m>", snippet="a photo")
        seq = assemble_qa_input(tiny_vocab, "what?", [doc], model.config.n_img_tokens, 128)
        enc = encode_multimodal(model, seq, [scene_image_16])
        backward(tsum(enc.states))
        assert model.params["lm.embed"].grad is not None
        assert model.params["vision.patch_proj.weight"].grad is not None
        assert model.params["vision.layer0.attn.wq"].grad is not None

    def test_batch_matches_each_sequence_alone(self, tiny_vocab, scene_image_16):
        # a padded batch of ragged text and image sequences encodes each row
        # as that sequence encodes in a batch of one, at its own length
        model = MultimodalTransformer.build(make_tiny_config(tiny_vocab.size), Rng(4))
        n_img = model.config.n_img_tokens
        docs = [Document(id="i", modality="image", image_path="<m>", snippet="a photo"),
                Document(id="t", modality="text", text="the capital of balor is venta")]
        seqs = [assemble_qa_input(tiny_vocab, "what?", ctx, n_img, 128)
                for ctx in ([docs[1]], docs, [docs[0], docs[0]], [])]
        images = [[], [scene_image_16], [scene_image_16, scene_image_16], []]
        batch = pad_sequences(seqs)
        states = encode_multimodal(model, batch, [im for row in images for im in row]).states
        assert states.shape == (4, max(map(len, seqs)), model.config.lm.hidden_size)
        for row, (seq, imgs) in enumerate(zip(seqs, images)):
            alone = encode_multimodal(model, seq, imgs).states.data
            np.testing.assert_allclose(states.data[row, :len(seq)], alone[0], rtol=0, atol=1e-5)

    def test_batch_image_count_checked_before_encoding(self, tiny_model):
        batch = pad_sequences([TokenSequence([3, IMG_ID, IMG_ID, 1]), TokenSequence([3, 1])])
        with pytest.raises(ValueError, match=r"runs of lengths \[2\] do not fit 0 images"):
            encode_multimodal(tiny_model, batch, [])

    @pytest.mark.parametrize("runs,n_images,message", [
        ([2, 2], 1, r"runs of lengths \[2, 2\] do not fit 1 images of 4 rows"),
        ([3, 5], 2, r"runs of lengths \[3, 5\] do not fit 2 images of 4 rows"),
    ], ids=["two_short_runs_one_image", "run_lengths_off"])
    def test_runs_checked_against_images_before_encoding(self, tiny_model, scene_image_16,
                                                         monkeypatch, runs, n_images, message):
        # the placeholder count matches the image rows in both cases, so only
        # the check of the runs themselves catches them
        assert sum(runs) == n_images * tiny_model.config.n_img_tokens
        ids = [3]
        for n in runs:
            ids += [IMG_ID] * n + [5]
        images = [Image(scene_image_16.pixels.copy()) for _ in range(n_images)]
        seen = count_encode_image(monkeypatch)
        with pytest.raises(ValueError, match=message):
            encode_multimodal(tiny_model, TokenSequence(ids + [EOS_ID]), images)
        assert seen == []

    def test_runs_at_row_ends_take_their_own_images(self, tiny_model, monkeypatch):
        # row 0 ends in a run and row 1 starts with one, so the two runs touch
        # in the flattened batch; each still takes its own image
        n = tiny_model.config.n_img_tokens
        images = [Image(render_scene(SceneSpec(color, shape, "top left")).pixels[:16, :16])
                  for color, shape in [("red", "square"), ("blue", "circle")]]
        rows = [TokenSequence([3, 5] + [IMG_ID] * n), TokenSequence([IMG_ID] * n + [5, 1])]
        fused = []
        real = model_module.inject

        def recording(*args):
            fused.append(real(*args))
            return fused[-1]

        monkeypatch.setattr(model_module, "inject", recording)
        encode_multimodal(tiny_model, pad_sequences(rows), images)
        for seq, img in zip(rows, images):
            encode_multimodal(tiny_model, seq, [img])
        batch, alone = fused[0].data, [f.data[0] for f in fused[1:]]
        assert not np.array_equal(alone[0][2:], alone[1][:n])
        for row in range(2):
            assert batch[row].tobytes() == alone[row].tobytes()

    def test_mask_length_checked(self, tiny_model):
        seq = TokenBatch(np.array([[3, 5, 1]]), np.ones((1, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="attention mask length differs from sequence length"):
            encode_multimodal(tiny_model, seq)

    def test_over_max_len_rejected_before_any_image_encodes(self, fresh_tiny_model,
                                                            scene_image_16, monkeypatch):
        model = fresh_tiny_model
        n_img, max_len = model.config.n_img_tokens, model.config.lm.max_len
        seq = TokenSequence(np.array([IMG_ID] * n_img + [3] * (max_len + 1 - n_img)))
        seen = count_encode_image(monkeypatch)
        with pytest.raises(ValueError, match=f"sequence length {max_len + 1} exceeds max_len {max_len}"):
            encode_multimodal(model, seq, [scene_image_16])
        assert seen == []

    @pytest.mark.parametrize("mask", [[0, 0, 0], [[1, 1, 0], [0, 0, 0]]], ids=["1d", "2d"])
    def test_fully_masked_key_row_rejected(self, mask):
        with pytest.raises(ValueError, match="every key masked"):
            key_padding_mask(np.array(mask), np.float32)

    def test_fully_masked_batch_row_rejected(self, tiny_model):
        batch = TokenBatch(np.array([[3, 5, 1], [3, 5, 1]]), np.array([[1, 1, 1], [0, 0, 0]]))
        with pytest.raises(ValueError, match="row 1 has every key masked"):
            encode_multimodal(tiny_model, batch)

    def test_batch_key_mask_is_one_row_per_sequence(self):
        m = key_padding_mask(np.array([[1, 1, 0], [1, 1, 1]]), np.float32)
        assert m.shape == (2, 1, 1, 3)
        np.testing.assert_array_equal(m.data[:, 0, 0], [[0, 0, -np.inf], [0, 0, 0]])
        assert key_padding_mask(np.ones((2, 3)), np.float32) is None


class TestDecoder:
    def test_softmax_of_logits_sums_to_one(self, tiny_model):
        enc = encode_multimodal(tiny_model, TokenSequence(np.array([5, 6, 1])))
        logits = decode_step(tiny_model, enc, [[PAD_ID]], DecoderCache())
        assert logits.shape == (1, tiny_model.config.lm.vocab_size)
        x = logits.data[0].astype(np.float64)
        probs = np.exp(x - x.max()) / np.exp(x - x.max()).sum()
        assert abs(probs.sum() - 1.0) < 1e-6

    def test_forced_head_argmax(self, tiny_vocab):
        cfg = make_tiny_config(tiny_vocab.size)
        model = MultimodalTransformer.build(cfg, Rng(2))
        k = 9
        model.params["lm.head.w_o"].data[:] = 0.0
        model.params["lm.head.b_o"].data[:] = 0.0
        model.params["lm.head.b_o"].data[k] = 3.0
        enc = encode_multimodal(model, TokenSequence(np.array([5, 1])))
        for prefix in ([PAD_ID], [PAD_ID, 5], [PAD_ID, 5, 6]):
            logits = decode_step(model, enc, [prefix], DecoderCache())
            assert int(np.argmax(logits.data[0])) == k

    def test_causality(self, tiny_model):
        enc = encode_multimodal(tiny_model, TokenSequence(np.array([5, 6, 7, 1])))
        short = decoder_logits(tiny_model, enc, [[PAD_ID, 5, 6]]).data
        extended = decoder_logits(tiny_model, enc, [[PAD_ID, 5, 6, 7, 8]]).data
        np.testing.assert_allclose(short, extended[:, :3], atol=1e-5)

    def test_batched_ids_must_match_encoder_rows(self, tiny_model):
        enc = encode_multimodal(tiny_model, pad_sequences([TokenSequence(np.array([5, 1]))] * 2))
        with pytest.raises(ValueError, match=r"ids \(3, 2\) do not match encoder states"):
            decoder_logits(tiny_model, enc, np.zeros((3, 2), dtype=np.int64))
        # a lone (T,) id list has no batch axis to match
        with pytest.raises(ValueError, match=r"ids \(2,\) do not match encoder states"):
            decoder_logits(tiny_model, enc, np.zeros(2, dtype=np.int64))

    def test_empty_encoder_states_rejected(self, tiny_model):
        empty = EncoderStates(
            Tensor(np.zeros((1, 0, tiny_model.config.lm.hidden_size), dtype=np.float32)),
            np.zeros((1, 0), dtype=np.int64),
        )
        with pytest.raises(ValueError, match="empty encoder states"):
            decode_step(tiny_model, empty, [[PAD_ID]], DecoderCache())

    def test_prefix_length_limit(self, tiny_model):
        enc = encode_multimodal(tiny_model, TokenSequence(np.array([5, 1])))
        max_len = tiny_model.config.lm.max_len
        too_long = [[PAD_ID] * (max_len + 1)]
        with pytest.raises(ValueError, match=f"input length {max_len + 1} exceeds max_len {max_len}"):
            decode_step(tiny_model, enc, too_long, DecoderCache())

    def test_cross_attention_dependence(self, tiny_model):
        seq = TokenSequence(np.array([5, 6, 7, 1]))
        enc = encode_multimodal(tiny_model, seq)
        base = decode_step(tiny_model, enc, [[PAD_ID, 5]], DecoderCache()).data.copy()
        bumped = EncoderStates(
            Tensor(enc.states.data + 0.25), enc.attention_mask
        )
        changed = decode_step(tiny_model, bumped, [[PAD_ID, 5]], DecoderCache()).data
        assert not np.allclose(base, changed)


class TestDecoderCache:
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-9)])
    def test_cached_steps_match_teacher_forcing(self, tiny_vocab, dtype, tol):
        cfg = make_tiny_config(tiny_vocab.size, layers=2)
        model = MultimodalTransformer.build(cfg, Rng(5), dtype=dtype)
        ids = [PAD_ID, 5, 9, 12, 7, 30, 8]
        # a padded one-row batch through decode_step
        enc = encode_multimodal(model, TokenBatch(np.array([[5, 6, 7, PAD_ID]]),
                                                  np.array([[1, 1, 1, 0]])))
        full = decoder_logits(model, enc, [ids]).data[0]
        cache = DecoderCache()
        for t in range(1, 4):  # one position per step
            step = decode_step(model, enc, [ids[t - 1:t]], cache).data
            np.testing.assert_allclose(step, full[None, t - 1], rtol=0, atol=tol)
        # several new positions at once: the causal mask is offset by the cache
        step = decode_step(model, enc, [ids[3:]], cache).data
        np.testing.assert_allclose(step, full[None, -1], rtol=0, atol=tol)
        assert cache.length == len(ids)
        # a ragged two-row batch, right-padded on both sides, through one cache
        enc = encode_multimodal(model, pad_sequences([TokenSequence([5, 6, 7, 1]),
                                                      TokenSequence([8, 1])]))
        batch = np.array([ids, [PAD_ID, 11, 4, EOS_ID, PAD_ID, PAD_ID, PAD_ID]])
        full = decoder_logits(model, enc, batch).data
        cache = DecoderCache()
        for t in (1, 2, 3, batch.shape[1]):
            step = decode_step(model, enc, batch[:, cache.length:t], cache).data
            np.testing.assert_allclose(step, full[:, t - 1], rtol=0, atol=tol)

    def test_cross_attention_projected_once(self, tiny_model):
        enc = encode_multimodal(tiny_model, TokenSequence(np.array([5, 6, 7, 1])))
        cache = DecoderCache()
        decode_step(tiny_model, enc, [[PAD_ID]], cache)
        cross = cache.kv["lm.decoder.layer0.cross_attn"]
        decode_step(tiny_model, enc, [[5]], cache)
        decode_step(tiny_model, enc, [[6]], cache)
        assert cache.kv["lm.decoder.layer0.cross_attn"] is cross
        d = tiny_model.config.lm.hidden_size
        assert cross.shape == enc.states.shape[:-1] + (2 * d,)  # keys, then values

    def test_self_attention_buffers_hold_cache_length_positions(self, tiny_model):
        # one position per step writes the rows one call over the whole
        # prefix writes; the one keys-and-values buffer is max_len long and
        # written in place
        enc = encode_multimodal(tiny_model, TokenSequence(np.array([5, 6, 7, 1])))
        prefix = [PAD_ID, 5, 6, 9]
        stepped = DecoderCache()
        for t in range(len(prefix)):
            decode_step(tiny_model, enc, [prefix[t:t + 1]], stepped)
        whole = DecoderCache()
        decode_step(tiny_model, enc, [prefix], whole)
        assert stepped.length == whole.length == len(prefix)
        d = tiny_model.config.lm.hidden_size
        max_len = tiny_model.config.lm.max_len
        name = "lm.decoder.layer0.self_attn"
        got, want = stepped.kv[name], whole.kv[name]
        assert got.shape == (1, max_len, 2 * d)
        np.testing.assert_allclose(got[:, :len(prefix)], want[:, :len(prefix)],
                                   rtol=0, atol=1e-6)

    def test_cache_under_grad_recording_raises(self, tiny_model):
        # the buffers are not on the tape, so a cached pass would lose gradients
        enc = encode_multimodal(tiny_model, TokenSequence(np.array([5, 6, 1])))
        cache = DecoderCache()
        with pytest.raises(ValueError, match="cache serves inference only"):
            model_module.decoder_hidden(tiny_model, enc, [[PAD_ID]], cache=cache)
        assert cache.length == 0 and not cache.kv
        decode_step(tiny_model, enc, [[PAD_ID]], cache)  # runs under no_grad
        assert cache.length == 1

    def test_step_past_max_len_rejected(self, tiny_model):
        # the limit counts the cached positions as well as the new ones
        enc = encode_multimodal(tiny_model, TokenSequence(np.array([5, 1])))
        max_len = tiny_model.config.lm.max_len
        cache = DecoderCache()
        decode_step(tiny_model, enc, [[PAD_ID] * (max_len - 1)], cache)
        decode_step(tiny_model, enc, [[5]], cache)
        with pytest.raises(ValueError, match=f"input length {max_len + 1} exceeds max_len {max_len}"):
            decode_step(tiny_model, enc, [[6]], cache)
        assert cache.length == max_len


def _wiring_model(vocab_size):
    """A one-layer tiny model at dropout 0.1 whose every norm gamma and beta
    and every bias is drawn from an Rng, so no two norms are interchangeable."""
    model = MultimodalTransformer.build(make_tiny_config(vocab_size, dropout=0.1), Rng(3))
    draw = Rng(4)
    for name, p in model.params.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("gamma", "beta", "bias") or leaf.startswith("b"):
            p.data[...] = draw.normal(p.shape, std=0.5)
    return model


def _norm(model, prefix, x):
    return layer_norm(x, model.params[f"{prefix}.gamma"], model.params[f"{prefix}.beta"])


def _encoder_layer(model, prefix, x, mask, rng):
    """An encoder layer written out: norm1, self-attention, dropout, add;
    norm2, MLP, dropout, add."""
    rate = model.config.lm.dropout_rate
    h = _norm(model, f"{prefix}.norm1", x)
    attn = multi_head_attention(model, f"{prefix}.attn", h, mask=mask, rng=rng)
    x = add(x, dropout(attn, rate, rng=rng))
    h = _norm(model, f"{prefix}.norm2", x)
    return add(x, dropout(_mlp(model, f"{prefix}.mlp", h, rng), rate, rng=rng))


class TestLayerWiring:
    """Each stack, one layer deep, against its documented composition with
    the same dropout draws: inputs plus positions, dropout, the layer, the
    final norm. Bit for bit, so a swapped norm or attention fails."""

    def test_vision_layer(self, tiny_vocab, scene_image_16):
        model = _wiring_model(tiny_vocab.size)
        p, rate = model.params, model.config.lm.dropout_rate
        rng = Rng(5)
        x = linear(Tensor(patchify(scene_image_16, model.config.vision.patch_size),
                          dtype=model.dtype),
                   p["vision.patch_proj.weight"], p["vision.patch_proj.bias"])
        x = dropout(add(x, p["vision.pos_emb"]), rate, rng=rng)
        x = _encoder_layer(model, "vision.layer0", x, None, rng)
        want = _norm(model, "vision.final_norm", x)
        got = encode_image(model, scene_image_16, rng=Rng(5))
        np.testing.assert_array_equal(got.data, want.data)

    def test_encoder_layer(self, tiny_vocab):
        model = _wiring_model(tiny_vocab.size)
        p, rate = model.params, model.config.lm.dropout_rate
        seq = pad_sequences([TokenSequence([5, 9, 6, EOS_ID]), TokenSequence([7, EOS_ID])])
        rng = Rng(6)
        x = embedding_lookup(p["lm.embed"], seq.ids)
        x = dropout(add(x, slice_(p["lm.encoder.pos_emb"], (slice(0, 4),))), rate, rng=rng)
        x = _encoder_layer(model, "lm.encoder.layer0", x,
                           key_padding_mask(seq.attention_mask, model.dtype), rng)
        want = _norm(model, "lm.encoder.final_norm", x)
        got = encode_multimodal(model, seq, rng=Rng(6)).states
        np.testing.assert_array_equal(got.data, want.data)

    def test_decoder_layer(self, tiny_vocab):
        model = _wiring_model(tiny_vocab.size)
        p, rate = model.params, model.config.lm.dropout_rate
        enc = encode_multimodal(model, pad_sequences([TokenSequence([5, 9, 6, EOS_ID]),
                                                      TokenSequence([7, EOS_ID])]))
        ids = np.array([[3, 5, 6], [7, 8, PAD_ID]])
        rng = Rng(7)
        pre = "lm.decoder.layer0"
        x = embedding_lookup(p["lm.embed"], ids)
        x = dropout(add(x, slice_(p["lm.decoder.pos_emb"], (slice(0, 3),))), rate, rng=rng)
        h = _norm(model, f"{pre}.norm1", x)
        attn = multi_head_attention(model, f"{pre}.self_attn", h,
                                    mask=causal_mask(3, model.dtype), rng=rng)
        x = add(x, dropout(attn, rate, rng=rng))
        h = _norm(model, f"{pre}.norm2", x)
        attn = multi_head_attention(model, f"{pre}.cross_attn", h, kv=enc.states,
                                    mask=key_padding_mask(enc.attention_mask, model.dtype),
                                    rng=rng)
        x = add(x, dropout(attn, rate, rng=rng))
        h = _norm(model, f"{pre}.norm3", x)
        x = add(x, dropout(_mlp(model, f"{pre}.mlp", h, rng), rate, rng=rng))
        want = _norm(model, "lm.decoder.final_norm", x)
        got = model_module.decoder_hidden(model, enc, ids, rng=Rng(7))
        np.testing.assert_array_equal(got.data, want.data)


def _old_layout_params(config, dtype):
    """Every tensor of checkpoint format 4's layout, which held ``wk``,
    ``wv`` and ``bk`` where ``wkv`` now stands, drawn nonzero: weights,
    biases and betas at std 0.1, gammas at 1 + N(0, 0.2²)."""
    shapes = []
    for name, shape in parameter_shapes(config):
        stem, leaf = name.rsplit(".", 1)
        if leaf == "wkv":
            d = shape[0]
            shapes += [(f"{stem}.{w}", (d, d)) for w in ("wk", "wv")]
            shapes.append((f"{stem}.bk", (d,)))
        else:
            shapes.append((name, shape))
    draw = Rng(11)
    params = {}
    for name, shape in shapes:
        if name.endswith(".gamma"):
            value = 1.0 + draw.normal(shape, std=0.2)
        else:
            value = draw.normal(shape, std=0.1)
        params[name] = Tensor(value, dtype=dtype)
    return params


def _to_fused_layout(config, old, dtype):
    """Format-5 parameters with the function of the format-4 ``old``:
    ``wkv`` is ``[wk | wv]``; ``bk`` goes, since the softmax cancels it."""
    new = {}
    for name, _ in parameter_shapes(config):
        stem, leaf = name.rsplit(".", 1)
        if leaf == "wkv":
            value = np.concatenate([old[f"{stem}.wk"].data, old[f"{stem}.wv"].data], axis=1)
        else:
            value = old[name].data
        new[name] = Tensor(value, dtype=dtype)
    return new


def _old_layout_attention(model, prefix, x, kv=None, mask=None, rng=None, cache=None):
    """Format 4's attention without a cache: keys and values from the
    separate ``wk``/``bk`` and ``wv``/``bv`` projections."""
    assert cache is None
    p, n_heads = model.params, model.config.lm.n_heads
    src = x if kv is None else kv
    q = linear(x, p[f"{prefix}.wq"], p[f"{prefix}.bq"])
    k = linear(src, p[f"{prefix}.wk"], p[f"{prefix}.bk"])
    v = linear(src, p[f"{prefix}.wv"], p[f"{prefix}.bv"])
    no_bias = Tensor(np.zeros(x.shape[-1], x.dtype))
    ctx = attention(q, concat([k, v], axis=k.ndim - 1), no_bias, n_heads,
                    1.0 / math.sqrt(x.shape[-1] // n_heads), mask,
                    rate=model.config.lm.dropout_rate, rng=rng)
    return linear(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def _greedy_by_teacher_forcing(model, enc, max_new_tokens):
    """``generate_ids`` without a cache: each step reruns every position."""
    ids = [PAD_ID]
    for _ in range(max_new_tokens):
        nxt = int(np.argmax(decoder_logits(model, enc, [ids]).data[0, -1]))
        if nxt == EOS_ID:
            break
        ids.append(nxt)
    return ids[1:]


class TestKvLayoutMapping:
    """A format-4 model with nonzero biases maps into the one-``wkv``
    layout with its function kept, up to float rounding: the encoder
    states, teacher-forced logits and reranker logits, with images in the
    vision encoder, and the greedy ids of the cached decoder."""

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)],
                             ids=["float64", "float32"])
    def test_mapped_model_keeps_outputs(self, tiny_vocab, scene_image_16, monkeypatch,
                                        dtype, tol):
        config = make_tiny_config(tiny_vocab.size, layers=2)
        old = MultimodalTransformer(config, _old_layout_params(config, dtype))
        new = MultimodalTransformer(config, _to_fused_layout(config, old.params, dtype))
        with_image = TokenSequence([5] + [IMG_ID] * config.n_img_tokens + [9, 6, EOS_ID])
        batch = pad_sequences([with_image, TokenSequence([7, 8, EOS_ID])])
        ids = np.array([[PAD_ID, 5, 9, 12], [PAD_ID, 11, 4, PAD_ID]])
        docs = [Document(id="t", modality="text", text="the capital of balor is venta"),
                Document(id="i", modality="image", image_path="scene.ppm")]

        def outputs(model, greedy):
            with no_grad():
                enc = encode_multimodal(model, batch, [scene_image_16])
                one = encode_multimodal(model, with_image, [scene_image_16])
                return (enc.states.data, decoder_logits(model, enc, ids).data,
                        score(model, tiny_vocab, "what is the capital of balor?", docs,
                              image_loader=lambda doc: scene_image_16).data,
                        greedy(model, one))

        with monkeypatch.context() as m:
            m.setattr(model_module, "multi_head_attention", _old_layout_attention)
            *want, want_ids = outputs(old, lambda model, enc: _greedy_by_teacher_forcing(
                model, enc, 8))
        *got, got_ids = outputs(new, lambda model, enc: generate_ids(
            model, enc, GenerationConfig(max_new_tokens=8)))
        for g, w in zip(got, want):
            # relative above 1, absolute below, as grad_check measures: a
            # reranker logit can sit near 0, where float32 rounding of its
            # input is not small relative to it
            assert g.dtype == w.dtype == dtype
            assert np.abs(g - w).max() <= tol * max(1.0, np.abs(w).max())
        assert len(set(want_ids)) > 1  # not one token repeated
        assert got_ids == want_ids

    def test_mapping_holds_under_attention_dropout(self, tiny_vocab, monkeypatch):
        # the key bias cancels before the weights take dropout and the value
        # bias stays on the values, so a training pass makes the same states
        config = make_tiny_config(tiny_vocab.size, layers=2, dropout=0.1)
        old = MultimodalTransformer(config, _old_layout_params(config, np.float64))
        new = MultimodalTransformer(config, _to_fused_layout(config, old.params, np.float64))
        batch = pad_sequences([TokenSequence([5, 9, 6, EOS_ID]), TokenSequence([7, 8, EOS_ID])])
        with monkeypatch.context() as m:
            m.setattr(model_module, "multi_head_attention", _old_layout_attention)
            want = encode_multimodal(old, batch, rng=Rng(5)).states.data
        got = encode_multimodal(new, batch, rng=Rng(5)).states.data
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        assert np.abs(got - encode_multimodal(new, batch).states.data).max() > 1e-3

    def test_wkv_draws_are_the_separate_projections(self):
        # a random-init model keeps format 4's wk and wv draws side by side
        config = make_tiny_config(50)
        model = MultimodalTransformer.build(config, Rng(9))
        d = config.lm.hidden_size
        for name in ("vision.layer0.attn.wkv", "lm.decoder.layer0.cross_attn.wkv"):
            halves = [Rng(9).child(f"init/{name[:-2]}{w}").truncated_normal((d, d), std=0.02)
                      for w in "kv"]
            want = np.concatenate(halves, axis=1).astype(np.float32)
            assert model.params[name].data.tobytes() == want.tobytes()


class TestProfiles:
    @pytest.mark.parametrize("name,d,layers,heads", [
        ("base", 768, 12, 12),
        ("large", 1024, 24, 16),
    ])
    def test_published_profile_shapes(self, name, d, layers, heads):
        cfg = model_profile(name, vocab_size=100)
        assert cfg.lm.hidden_size == d
        assert cfg.lm.n_layers == layers
        assert cfg.lm.n_heads == heads
        shapes = dict(parameter_shapes(cfg))
        assert shapes["lm.embed"] == (100, d)
        assert shapes[f"lm.encoder.layer{layers - 1}.attn.wq"] == (d, d)
        assert shapes[f"lm.decoder.layer{layers - 1}.cross_attn.wkv"] == (d, 2 * d)
        assert shapes["vision.layer0.attn.wkv"] == (d, 2 * d)
        assert shapes["vision.layer0.attn.bv"] == (d,)
        # one K/V projection and no key bias
        assert not [n for n in shapes if n.rsplit(".", 1)[-1] in ("wk", "wv", "bk")]
        assert shapes["lm.head.w_o"] == (100, d)
        assert shapes["cls_head.w2"] == (1, d)
        assert f"lm.encoder.layer{layers}.attn.wq" not in shapes

    def test_desk_parameter_order_pinned(self):
        # gradient clipping sums squares in this order, so moving a name
        # changes training bits; sha256 of the desk profile's names as listed
        import hashlib

        names = [name for name, _ in parameter_shapes(model_profile("desk"))]
        assert len(names) == 118
        assert hashlib.sha256("\n".join(names).encode()).hexdigest() == \
            "de9cdd050c3c652979a37c4c65c2ff46e782ff4a6eb73d585cf7c2966a3162b3"

    @pytest.mark.parametrize("name", ["desk", "base", "large"])
    def test_one_depth_and_head_count_for_every_stack(self, name):
        # format 5's config stated them per stack; one lm value now serves all three
        from fusionqa.config import config_from_dict, config_to_dict

        cfg = model_profile(name, vocab_size=100)
        for stack in ("vision", "lm.encoder", "lm.decoder"):
            layers = {n[len(stack) + 1:].split(".", 1)[0] for n, _ in parameter_shapes(cfg)
                      if n.startswith(f"{stack}.layer")}
            assert layers == {f"layer{i}" for i in range(cfg.lm.n_layers)}, stack
        for section, key in (("vision", "n_heads"), ("vision", "n_layers"),
                             ("lm", "n_enc_layers")):
            d = config_to_dict(cfg)
            d[section][key] = 2
            with pytest.raises(ValueError, match=rf"unknown {section} config fields \['{key}'\]"):
                config_from_dict(d)

    @pytest.mark.parametrize("image_size,patch_size", [(32, 64), (33, 8), (20, 8)])
    def test_image_size_must_be_patch_multiple(self, image_size, patch_size):
        from fusionqa.config import VisionConfig

        with pytest.raises(ValueError, match=rf"vision image_size {image_size} is not a "
                                             rf"multiple of patch_size {patch_size}"):
            VisionConfig(patch_size=patch_size, image_size=image_size)
