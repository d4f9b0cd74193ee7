import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionqa import model as model_module
from fusionqa.config import model_profile
from fusionqa.documents import Document
from fusionqa.model import (
    DecoderCache,
    EncoderStates,
    MultimodalTransformer,
    decode_step,
    decoder_logits,
    embed_tokens,
    encode_multimodal,
    inject,
    key_padding_mask,
    parameter_shapes,
)
from fusionqa.tensor import (
    Rng,
    Tensor,
    backward,
    embedding_lookup,
    grad_check,
    mul,
    tsum,
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

from conftest import count_encode_image, make_tiny_config


class TestEmbedTokens:
    def test_shape_and_lookup_semantics(self, tiny_model):
        seq = TokenSequence(np.array([5, 9, 5, PAD_ID]))
        emb = embed_tokens(tiny_model, seq)
        d = tiny_model.config.lm.hidden_size
        assert emb.shape == (4, d)
        np.testing.assert_array_equal(emb.data[0], emb.data[2])
        np.testing.assert_array_equal(
            emb.data[3], tiny_model.params["lm.embed"].data[PAD_ID]
        )

    def test_out_of_range_id_rejected(self, tiny_model):
        big = tiny_model.config.lm.vocab_size
        with pytest.raises(ValueError, match="out of range"):
            embed_tokens(tiny_model, np.array([0, big]))


class TestInject:
    def test_single_span(self):
        text = Tensor(np.arange(4 * 3, dtype=np.float32).reshape(4, 3))
        img = Tensor(np.full((2, 3), -1.0, dtype=np.float32))
        fused = inject(text, [img], [(1, 2)])
        np.testing.assert_array_equal(fused.data[0], text.data[0])
        np.testing.assert_array_equal(fused.data[1:3], img.data)
        np.testing.assert_array_equal(fused.data[3], text.data[3])

    def test_zero_spans_identity(self):
        text = Tensor(np.random.default_rng(0).normal(size=(5, 4)).astype(np.float32))
        fused = inject(text, [], [])
        assert fused is text

    def test_two_spans_rows(self):
        rng = np.random.default_rng(2)
        text = Tensor(rng.normal(size=(8, 2)).astype(np.float32))
        a = Tensor(np.ones((2, 2), dtype=np.float32))
        b = Tensor(np.full((2, 2), 2.0, dtype=np.float32))
        fused = inject(text, [a, b], [(1, 2), (5, 2)]).data
        np.testing.assert_array_equal(fused[1:3], a.data)
        np.testing.assert_array_equal(fused[5:7], b.data)
        outside = [0, 3, 4, 7]
        np.testing.assert_array_equal(fused[outside], text.data[outside])

    def test_mismatched_span_count_rejected(self):
        text = Tensor(np.zeros((4, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="1 image matrices for 2 spans"):
            inject(text, [Tensor(np.zeros((2, 2), dtype=np.float32))], [(0, 2), (2, 2)])

    def test_mismatched_span_length_rejected(self):
        text = Tensor(np.zeros((4, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="span 0"):
            inject(text, [Tensor(np.zeros((3, 2), dtype=np.float32))], [(0, 2)])

    def test_inputs_unmodified(self):
        rng = np.random.default_rng(1)
        text_arr = rng.normal(size=(6, 3)).astype(np.float32)
        img_arr = rng.normal(size=(2, 3)).astype(np.float32)
        text, img = Tensor(text_arr.copy()), Tensor(img_arr.copy())
        inject(text, [img], [(2, 2)])
        np.testing.assert_array_equal(text.data, text_arr)
        np.testing.assert_array_equal(img.data, img_arr)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_injection_exactness_property(self, data):
        length = data.draw(st.integers(1, 20))
        d = data.draw(st.sampled_from([2, 4, 8]))
        # carve non-overlapping spans
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
        text = Tensor(rng.normal(size=(length, d)).astype(np.float32))
        imgs = [Tensor(rng.normal(size=(l, d)).astype(np.float32)) for _, l in spans]
        fused = inject(text, imgs, spans)
        expected = text.data.copy()
        for (start, l), img in zip(spans, imgs):
            expected[start:start + l] = img.data
        np.testing.assert_array_equal(fused.data, expected)

    def test_batched_rows_equal_per_row_injection(self):
        rng = np.random.default_rng(3)
        text = Tensor(rng.normal(size=(3, 6, 2)).astype(np.float32))
        imgs = [Tensor(rng.normal(size=(2, 2)).astype(np.float32)) for _ in range(3)]
        spans = [[(1, 2)], [], [(0, 2), (4, 2)]]
        fused = inject(text, imgs, spans).data
        assert fused.shape == (3, 6, 2)
        rows = [imgs[:1], [], imgs[1:]]
        for b in range(3):
            alone = inject(Tensor(text.data[b]), rows[b], spans[b]).data
            np.testing.assert_array_equal(fused[b], alone)

    def test_batched_injection_gradient(self):
        rng = np.random.default_rng(4)
        text = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True, dtype=np.float64)
        img = Tensor(rng.normal(size=(2, 3)), requires_grad=True, dtype=np.float64)
        weight = Tensor(rng.normal(size=(2, 5, 3)), dtype=np.float64)

        def f(params):
            return tsum(mul(inject(params[0], [params[1]], [[], [(2, 2)]]), weight))

        assert grad_check(f, [text, img]) < 1e-8

    @pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
    def test_gather_bit_identical_to_embedding_lookup(self, monkeypatch, batched):
        # the injection index never repeats, so scattering its gradient by
        # assignment gives embedding_lookup's np.add.at result bit for bit
        rng = np.random.default_rng(5)
        shape = (2, 7, 4) if batched else (7, 4)
        spans = [[(1, 3)], [(0, 2), (4, 3)]] if batched else [(1, 3), (5, 2)]
        text_arr = rng.normal(size=shape).astype(np.float32)
        lengths = [n for row in (spans if batched else [spans]) for _, n in row]
        img_arrs = [rng.normal(size=(n, 4)).astype(np.float32) for n in lengths]
        weight = Tensor(rng.normal(size=shape).astype(np.float32))

        def run():
            text = Tensor(text_arr, requires_grad=True)
            imgs = [Tensor(a, requires_grad=True) for a in img_arrs]
            out = inject(text, imgs, spans)
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
        assert enc1.states.shape == (5, tiny_model.config.lm.hidden_size)
        np.testing.assert_array_equal(enc1.states.data, enc2.states.data)

    def test_masked_pads_do_not_influence_unmasked(self, tiny_vocab):
        cfg = make_tiny_config(tiny_vocab.size)
        model = MultimodalTransformer.build(cfg, Rng(11))
        ids = np.array([3, 5, 6, PAD_ID, PAD_ID])
        mask = np.array([1, 1, 1, 0, 0])
        seq = TokenSequence(ids, attention_mask=mask)
        base = encode_multimodal(model, seq).states.data[:3].copy()
        # changing the pad embedding must not leak into unmasked outputs
        model.params["lm.embed"].data[PAD_ID] += 7.5
        perturbed = encode_multimodal(model, seq).states.data[:3]
        np.testing.assert_allclose(base, perturbed, atol=1e-6)

    def test_gradients_reach_embeddings_and_vision(self, fresh_tiny_model, scene_image_16, tiny_vocab):
        model = fresh_tiny_model
        model.set_trainable(("lm.", "vision."))
        doc = Document(id="i", modality="image", image_path="<m>", snippet="a photo")
        seq = assemble_qa_input(tiny_vocab, "what?", [doc], model.config.n_img_tokens, 128)
        enc = encode_multimodal(model, seq, [scene_image_16])
        backward(tsum(enc.states))
        assert model.params["lm.embed"].grad is not None
        assert model.params["vision.patch_proj.weight"].grad is not None
        assert model.params["vision.layer0.attn.wq"].grad is not None

    def test_batch_matches_each_sequence_alone(self, tiny_vocab, scene_image_16):
        # a padded batch of ragged text and image sequences encodes each row
        # as that sequence encodes alone, at its own length
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
            np.testing.assert_allclose(states.data[row, :len(seq)], alone, rtol=0, atol=1e-5)

    def test_batch_image_count_checked_before_encoding(self, tiny_model):
        batch = pad_sequences([TokenSequence([3, IMG_ID, IMG_ID, 1], image_spans=[(1, 2)]),
                               TokenSequence([3, 1])])
        with pytest.raises(ValueError, match="1 image spans but 0 images"):
            encode_multimodal(tiny_model, batch, [])

    def test_mask_length_checked(self, tiny_model):
        seq = TokenSequence(np.array([3, 5, 1]))
        seq.attention_mask = np.ones(4, dtype=np.int64)
        with pytest.raises(ValueError, match="attention mask length differs from sequence length"):
            encode_multimodal(tiny_model, seq)

    def test_over_max_len_rejected_before_any_image_encodes(self, fresh_tiny_model,
                                                            scene_image_16, monkeypatch):
        model = fresh_tiny_model
        n_img, max_len = model.config.n_img_tokens, model.config.lm.max_len
        seq = TokenSequence(np.array([IMG_ID] * n_img + [3] * (max_len + 1 - n_img)),
                            image_spans=[(0, n_img)])
        seen = count_encode_image(monkeypatch)
        with pytest.raises(ValueError, match=f"sequence length {max_len + 1} exceeds max_len {max_len}"):
            encode_multimodal(model, seq, [scene_image_16])
        assert seen == []

    @pytest.mark.parametrize("mask", [[0, 0, 0], [[1, 1, 0], [0, 0, 0]]], ids=["1d", "2d"])
    def test_fully_masked_key_row_rejected(self, mask):
        with pytest.raises(ValueError, match="every key masked"):
            key_padding_mask(np.array(mask), np.float32)

    def test_fully_masked_batch_row_rejected(self, tiny_model):
        batch = TokenBatch(np.array([[3, 5, 1], [3, 5, 1]]), np.array([[1, 1, 1], [0, 0, 0]]),
                           [[], []])
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
        logits = decode_step(tiny_model, enc, [PAD_ID])
        x = logits.data.astype(np.float64)
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
            logits = decode_step(model, enc, prefix)
            assert int(np.argmax(logits.data)) == k

    def test_causality(self, tiny_model):
        enc = encode_multimodal(tiny_model, TokenSequence(np.array([5, 6, 7, 1])))
        short = decoder_logits(tiny_model, enc, [PAD_ID, 5, 6]).data
        extended = decoder_logits(tiny_model, enc, [PAD_ID, 5, 6, 7, 8]).data
        np.testing.assert_allclose(short, extended[:3], atol=1e-5)

    def test_batched_ids_must_match_encoder_rows(self, tiny_model):
        enc = encode_multimodal(tiny_model, pad_sequences([TokenSequence(np.array([5, 1]))] * 2))
        with pytest.raises(ValueError, match=r"ids \(3, 2\) do not match encoder states"):
            decoder_logits(tiny_model, enc, np.zeros((3, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="cache serves one sequence"):
            model_module.decoder_hidden(tiny_model, enc, np.zeros((2, 2), dtype=np.int64),
                                        cache=DecoderCache())

    def test_empty_encoder_states_rejected(self, tiny_model):
        empty = EncoderStates(
            Tensor(np.zeros((0, tiny_model.config.lm.hidden_size), dtype=np.float32)),
            np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="empty encoder states"):
            decode_step(tiny_model, empty, [PAD_ID])

    def test_prefix_length_limit(self, tiny_model):
        enc = encode_multimodal(tiny_model, TokenSequence(np.array([5, 1])))
        too_long = [PAD_ID] * tiny_model.config.lm.max_len
        with pytest.raises(ValueError, match="prefix length"):
            decode_step(tiny_model, enc, too_long)

    def test_cross_attention_dependence(self, tiny_model):
        seq = TokenSequence(np.array([5, 6, 7, 1]))
        enc = encode_multimodal(tiny_model, seq)
        base = decode_step(tiny_model, enc, [PAD_ID, 5]).data.copy()
        bumped = EncoderStates(
            Tensor(enc.states.data + 0.25), enc.attention_mask
        )
        changed = decode_step(tiny_model, bumped, [PAD_ID, 5]).data
        assert not np.allclose(base, changed)


class TestDecoderCache:
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-9)])
    def test_cached_steps_match_teacher_forcing(self, tiny_vocab, dtype, tol):
        cfg = make_tiny_config(tiny_vocab.size, layers=2)
        model = MultimodalTransformer.build(cfg, Rng(5), dtype=dtype)
        seq = TokenSequence(np.array([5, 6, 7, PAD_ID]), attention_mask=np.array([1, 1, 1, 0]))
        enc = encode_multimodal(model, seq)
        ids = [PAD_ID, 5, 9, 12, 7, 30, 8]
        full = decoder_logits(model, enc, ids).data
        cache = DecoderCache()
        for t in range(1, 4):  # one position per step
            step = decode_step(model, enc, ids[:t], cache).data
            np.testing.assert_allclose(step, full[t - 1], rtol=0, atol=tol)
        # several new positions at once: the causal mask is offset by the cache
        step = decode_step(model, enc, ids, cache).data
        np.testing.assert_allclose(step, full[-1], rtol=0, atol=tol)
        assert cache.length == len(ids)

    def test_cross_attention_projected_once(self, tiny_model):
        enc = encode_multimodal(tiny_model, TokenSequence(np.array([5, 6, 7, 1])))
        cache = DecoderCache()
        decode_step(tiny_model, enc, [PAD_ID], cache)
        cross = cache.kv["lm.decoder.layer0.cross_attn"]
        decode_step(tiny_model, enc, [PAD_ID, 5], cache)
        decode_step(tiny_model, enc, [PAD_ID, 5, 6], cache)
        assert cache.kv["lm.decoder.layer0.cross_attn"] is cross
        keys, values = cache.kv["lm.decoder.layer0.self_attn"]
        assert keys.shape[1] == values.shape[1] == 3

    def test_cache_longer_than_prefix_rejected(self, tiny_model):
        enc = encode_multimodal(tiny_model, TokenSequence(np.array([5, 1])))
        cache = DecoderCache()
        decode_step(tiny_model, enc, [PAD_ID, 5], cache)
        for prefix in ([PAD_ID], [PAD_ID, 5]):
            with pytest.raises(ValueError, match="cache holds 2 positions"):
                decode_step(tiny_model, enc, prefix, cache)


class TestProfiles:
    @pytest.mark.parametrize("name,d,enc,dec,heads", [
        ("base", 768, 12, 12, 12),
        ("large", 1024, 24, 24, 16),
    ])
    def test_published_profile_shapes(self, name, d, enc, dec, heads):
        cfg = model_profile(name, vocab_size=100)
        assert cfg.lm.hidden_size == d == cfg.vision.hidden_size
        assert cfg.lm.n_enc_layers == enc
        assert cfg.lm.n_dec_layers == dec
        assert cfg.lm.n_heads == heads == cfg.vision.n_heads
        assert cfg.vision.n_layers == enc
        shapes = parameter_shapes(cfg)
        assert shapes["lm.embed"] == (100, d)
        assert shapes[f"lm.encoder.layer{enc - 1}.attn.wq"] == (d, d)
        assert shapes[f"lm.decoder.layer{dec - 1}.cross_attn.wv"] == (d, d)
        assert shapes["lm.head.w_o"] == (100, d)
        assert shapes["cls_head.w2"] == (1, d)
        assert f"lm.encoder.layer{enc}.attn.wq" not in shapes

    def test_mismatched_hidden_sizes_rejected(self):
        from fusionqa.config import LmConfig, ModelConfig, VisionConfig

        with pytest.raises(ValueError, match="identical"):
            ModelConfig(vision=VisionConfig(hidden_size=64, n_heads=4),
                        lm=LmConfig(hidden_size=32, n_heads=4))
