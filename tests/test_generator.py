import math

import numpy as np
import pytest

from fusionqa.config import GenerationConfig
from fusionqa.documents import Document
from fusionqa import generator
from fusionqa.generator import generate, generate_ids, qa_loss
from fusionqa.model import MultimodalTransformer, decoder_logits, encode_multimodal
from fusionqa.tensor import Rng
from fusionqa.tokenizer import EOS_ID, PAD_ID, TokenSequence, pad_sequences

from conftest import make_tiny_config
from tensor_reference import grad_check


def _enc(model, ids=(5, 6, 1)):
    return encode_multimodal(model, TokenSequence(np.array(ids)))


class TestQaLoss:
    def test_uniform_logits_gives_ln_v(self, tiny_vocab):
        model = MultimodalTransformer.build(make_tiny_config(tiny_vocab.size), Rng(0))
        model.params["lm.head.w_o"].data[:] = 0.0
        model.params["lm.head.b_o"].data[:] = 0.0
        enc = _enc(model)
        target = np.array([5, 9, 12, EOS_ID])
        loss = qa_loss(model, enc, target)
        assert abs(loss.item() - math.log(tiny_vocab.size)) < 1e-6

    def test_padding_positions_excluded(self, tiny_model):
        enc = _enc(tiny_model)
        target = np.array([5, 9, EOS_ID])
        padded = np.array([5, 9, EOS_ID, PAD_ID, PAD_ID])
        base = qa_loss(tiny_model, enc, target).item()
        same = qa_loss(tiny_model, enc, padded).item()
        assert abs(base - same) < 1e-6

    def test_empty_target_rejected(self, tiny_model):
        enc = _enc(tiny_model)
        with pytest.raises(ValueError, match="empty target"):
            qa_loss(tiny_model, enc, np.array([], dtype=np.int64))

    def test_batched_targets_give_mean_of_row_losses(self, tiny_model):
        # ragged inputs and ragged targets, right-padded into one batch each
        inputs = [np.array([5, 6, 7, 8, 1]), np.array([9, 1]), np.array([5, 11, 12, 1])]
        targets = [np.array([5, 9, EOS_ID]), np.array([7, 8, 9, 10, 11, EOS_ID]),
                   np.array([12, EOS_ID])]
        enc = encode_multimodal(tiny_model, pad_sequences(TokenSequence(x) for x in inputs))
        batch = pad_sequences(TokenSequence(t) for t in targets).ids
        # each row against a batch of one
        rows = [qa_loss(tiny_model, _enc(tiny_model, x), t).item()
                for x, t in zip(inputs, targets)]
        assert abs(qa_loss(tiny_model, enc, batch).item() - np.mean(rows)) < 1e-5
        start = np.full((3, 1), PAD_ID)
        logits = decoder_logits(tiny_model, enc, np.concatenate([start, batch[:, :-1]], axis=1))
        for row, (x, t) in enumerate(zip(inputs, targets)):
            alone = decoder_logits(tiny_model, _enc(tiny_model, x),
                                   [np.concatenate([[PAD_ID], t[:-1]])])
            np.testing.assert_allclose(logits.data[row, :len(t)], alone.data[0], atol=1e-5)

    def test_batched_gradient_check(self, tiny_vocab):
        cfg = make_tiny_config(tiny_vocab.size, d=16, heads=2, layers=1)
        model = MultimodalTransformer.build(cfg, Rng(6), dtype=np.float64)
        enc_in = pad_sequences([TokenSequence(np.array([5, 6, 7, 1])),
                                TokenSequence(np.array([8, 1]))])
        targets = pad_sequences([TokenSequence(np.array([9, 10, 11, EOS_ID])),
                                 TokenSequence(np.array([12, EOS_ID]))]).ids

        def f(params):
            return qa_loss(model, encode_multimodal(model, enc_in), targets)

        params = [p for name, p in sorted(model.params.items()) if name.startswith("lm.")]
        err = grad_check(f, params, eps=1e-5, max_coords_per_param=3, rng=Rng(1))
        assert err < 1e-6

    def test_row_without_target_rejected(self, tiny_model):
        enc = encode_multimodal(tiny_model, pad_sequences([TokenSequence(np.array([5, 1]))] * 2))
        with pytest.raises(ValueError, match="no unmasked target positions in row 1"):
            qa_loss(tiny_model, enc, np.array([[5, EOS_ID], [PAD_ID, PAD_ID]]))

    def test_gradient_check_through_injection(self, tiny_vocab, scene_image_16):
        from fusionqa.tokenizer import assemble_qa_input

        cfg = make_tiny_config(tiny_vocab.size, d=16, heads=2, layers=1)
        model = MultimodalTransformer.build(cfg, Rng(4), dtype=np.float64)
        doc = Document(id="i", modality="image", image_path="<m>", snippet="a photo")
        seq = assemble_qa_input(tiny_vocab, "what color?", [doc],
                                model.config.n_img_tokens, 128)
        target = tiny_vocab.encode("red").ids

        def f(params):
            enc = encode_multimodal(model, seq, [scene_image_16])
            return qa_loss(model, enc, target)

        params = [p for _, p in sorted(model.params.items())]
        err = grad_check(f, params, eps=1e-4, max_coords_per_param=3, rng=Rng(2))
        assert err < 1e-4


class TestGenerate:
    def test_forced_eos_head_gives_empty_answer(self, tiny_vocab):
        model = MultimodalTransformer.build(make_tiny_config(tiny_vocab.size), Rng(1))
        model.params["lm.head.w_o"].data[:] = 0.0
        model.params["lm.head.b_o"].data[:] = 0.0
        model.params["lm.head.b_o"].data[EOS_ID] = 5.0
        ids = generate_ids(model, _enc(model), GenerationConfig(max_new_tokens=16))
        assert ids == []

    def test_deterministic(self, tiny_model, tiny_vocab):
        doc = Document(id="t", modality="text", text="the capital of balor is venta")
        cfg = GenerationConfig(max_new_tokens=12)
        a = generate(tiny_model, tiny_vocab, "what is the capital of balor?", [doc], cfg)
        b = generate(tiny_model, tiny_vocab, "what is the capital of balor?", [doc], cfg)
        assert a == b

    def test_length_bound(self, tiny_model):
        # forbid eos so decoding always hits the cap
        tiny_model.params["lm.head.b_o"].data[EOS_ID] = -1e9
        try:
            for cap in (1, 3, 7, tiny_model.config.lm.max_len - 1):
                ids = generate_ids(tiny_model, _enc(tiny_model),
                                   GenerationConfig(max_new_tokens=cap))
                assert len(ids) == cap
        finally:
            tiny_model.params["lm.head.b_o"].data[EOS_ID] = 0.0

    def test_tie_break_lowest_id(self, tiny_vocab):
        model = MultimodalTransformer.build(make_tiny_config(tiny_vocab.size), Rng(1))
        model.params["lm.head.w_o"].data[:] = 0.0
        model.params["lm.head.b_o"].data[:] = 0.0  # all-tied logits
        ids = generate_ids(model, _enc(model), GenerationConfig(max_new_tokens=4))
        assert ids == [PAD_ID] * 4  # id 0 wins every tie, never eos

    def test_answer_text_has_no_specials(self, tiny_model, tiny_vocab):
        doc = Document(id="t", modality="text", text="red square")
        out = generate(tiny_model, tiny_vocab, "what?", [doc],
                       GenerationConfig(max_new_tokens=8))
        for special in ("<pad>", "</s>", "<cls>", "<img>", "<unk>"):
            assert special not in out

    @pytest.mark.parametrize("seed", [3, 8, 21])
    def test_matches_full_prefix_greedy_loop(self, tiny_vocab, seed):
        model = MultimodalTransformer.build(make_tiny_config(tiny_vocab.size), Rng(seed))
        enc = _enc(model, (5, 6, 7, 8, 1))
        cap = 16
        prefix, expected = [PAD_ID], []
        for _ in range(cap):
            nxt = int(np.argmax(decoder_logits(model, enc, [prefix]).data[0, -1]))
            if nxt == EOS_ID:
                break
            expected.append(nxt)
            prefix.append(nxt)
        assert generate_ids(model, enc, GenerationConfig(max_new_tokens=cap)) == expected

    def test_cap_at_max_len_rejected_before_decoding(self, tiny_model, monkeypatch):
        steps = []
        monkeypatch.setattr(generator, "decode_step", lambda *a: steps.append(a))
        max_len = tiny_model.config.lm.max_len
        for cap in (max_len, max_len + 50):
            with pytest.raises(ValueError, match=f"max_new_tokens {cap} .*max_len {max_len}"):
                generate_ids(tiny_model, _enc(tiny_model), GenerationConfig(max_new_tokens=cap))
        assert steps == []
