import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionqa.config import SelectionConfig
from fusionqa.documents import Document
from fusionqa.images import Image
from fusionqa.model import MultimodalTransformer
from fusionqa.reranker import (
    RetrievedSet,
    build_training_batch,
    reranker_loss,
    score,
    select_contexts,
)
from fusionqa.tensor import Rng, Tensor, sigmoid_np

from conftest import make_tiny_config
from tensor_reference import grad_check


def logit(p):
    return math.log(p / (1.0 - p))


def brute_force_selection(logits, tau, k):
    """Reference oracle: sigmoid each logit, filter by the relative
    threshold, then sort survivors by (score desc, index asc) and cap at k.
    Pure-python loops, independent of the production path."""
    scores = [1.0 / (1.0 + math.exp(-x)) if x >= 0
              else math.exp(x) / (1.0 + math.exp(x)) for x in logits]
    ymax = max(scores)
    survivors = [i for i, s in enumerate(scores) if s >= tau * ymax]
    survivors.sort(key=lambda i: (-scores[i], i))
    return survivors[:k]


class TestSelectContexts:
    def test_threshold_example(self):
        # normalized scores 0.9, 0.5, 0.44, 0.2 with tau 0.5: cutoff 0.45
        logits = [logit(0.9), logit(0.5), logit(0.44), logit(0.2)]
        out = select_contexts(logits, SelectionConfig(tau=0.5, k=5))
        assert out.selected == [0, 1]

    def test_six_way_tie_keeps_first_five(self):
        out = select_contexts([logit(0.8)] * 6, SelectionConfig(tau=0.5, k=5))
        assert out.selected == [0, 1, 2, 3, 4]

    def test_argmax_always_selected(self):
        out = select_contexts([-5.0, -1.0, -9.0], SelectionConfig(tau=1.0, k=1))
        assert out.selected == [1]

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            select_contexts([], SelectionConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logit_rejected(self, bad):
        with pytest.raises(ValueError, match="candidate 2 has non-finite score"):
            select_contexts([0.5, 1.0, bad, np.nan], SelectionConfig())

    def test_scores_are_sigmoids(self):
        out = select_contexts([0.0, 2.0], SelectionConfig())
        np.testing.assert_allclose(out.scores, sigmoid_np([0.0, 2.0]))

    @given(
        logits=st.lists(st.floats(-8, 8), min_size=1, max_size=8),
        tau=st.sampled_from([0.1 * i for i in range(1, 11)]),
        k=st.integers(1, 6),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_oracle(self, logits, tau, k):
        got = select_contexts(logits, SelectionConfig(tau=tau, k=k))
        assert got.selected == brute_force_selection(logits, tau, k)

    @given(
        logits=st.lists(st.floats(-6, 6), min_size=1, max_size=8),
        tau=st.floats(0.05, 1.0),
        k=st.integers(1, 6),
        bump=st.floats(0.1, 5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_selection_invariants(self, logits, tau, k, bump):
        cfg = SelectionConfig(tau=tau, k=k)
        out = select_contexts(logits, cfg)
        scores = out.scores
        # argmax retained, size bound, threshold predicate for every member
        assert int(np.argmax(scores)) in out.selected
        assert len(out.selected) <= k
        cutoff = tau * scores.max()
        for i in out.selected:
            assert scores[i] >= cutoff
        # monotonicity: raising a selected candidate's logit keeps it selected
        target = out.selected[-1]
        raised = list(logits)
        raised[target] += bump
        out2 = select_contexts(raised, cfg)
        assert target in out2.selected


class TestRerankerLoss:
    def test_ln2_at_zero_logit(self):
        loss = reranker_loss(Tensor([0.0], dtype=np.float64), [1.0])
        assert abs(loss.item() - math.log(2)) < 1e-9

    def test_stable_at_large_magnitude(self):
        assert reranker_loss(Tensor([40.0], dtype=np.float64), [1.0]).item() < 1e-12
        big = reranker_loss(Tensor([-40.0], dtype=np.float64), [1.0]).item()
        assert math.isfinite(big) and abs(big - 40.0) < 1e-6
        assert math.isfinite(
            reranker_loss(Tensor([1e4, -1e4], dtype=np.float64), [0.0, 1.0]).item()
        )

    def test_matches_naive_formula_where_finite(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(scale=4.0, size=64)
        labels = (rng.random(64) > 0.4).astype(float)
        stable = reranker_loss(Tensor(logits, dtype=np.float64), labels).item()
        sig = 1.0 / (1.0 + np.exp(-logits))
        naive = -np.mean(labels * np.log(sig) + (1 - labels) * np.log(1 - sig))
        assert abs(stable - naive) < 1e-6

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="logits vs"):
            reranker_loss(Tensor([0.0, 1.0]), [1.0])


class TestScore:
    def _head_fixed_model(self, vocab):
        model = MultimodalTransformer.build(make_tiny_config(vocab.size), Rng(5))
        return model

    def test_constant_head_gives_constant_score(self, tiny_vocab):
        model = self._head_fixed_model(tiny_vocab)
        model.params["cls_head.w2"].data[:] = 0.0
        model.params["cls_head.b2"].data[:] = 0.3
        doc_a = Document(id="a", modality="text", text="the capital of balor is venta")
        doc_b = Document(id="b", modality="text", text="red square")
        sa = score(model, tiny_vocab, "what is the capital of balor?", [doc_a, doc_b])
        sb = score(model, tiny_vocab, "anything", [doc_b])
        assert sa.shape == (2,) and sb.shape == (1,)
        np.testing.assert_allclose(sa.data, 0.3, atol=1e-6)
        np.testing.assert_allclose(sb.data, 0.3, atol=1e-6)

    def test_zero_hidden_path_gives_b2(self, tiny_vocab):
        model = self._head_fixed_model(tiny_vocab)
        # zero W1 and b1: tanh(0) = 0, so y = b2 regardless of W2
        model.params["cls_head.w1"].data[:] = 0.0
        model.params["cls_head.b1"].data[:] = 0.0
        model.params["cls_head.b2"].data[:] = -1.25
        doc = Document(id="a", modality="text", text="red square")
        s = score(model, tiny_vocab, "what?", [doc])
        assert abs(s.data[0] - (-1.25)) < 1e-6

    def test_eval_mode_deterministic(self, tiny_vocab):
        model = MultimodalTransformer.build(
            make_tiny_config(tiny_vocab.size, dropout=0.2), Rng(5)
        )
        doc = Document(id="a", modality="text", text="red square")
        s1 = score(model, tiny_vocab, "what?", [doc]).data
        s2 = score(model, tiny_vocab, "what?", [doc]).data
        np.testing.assert_array_equal(s1, s2)

    def test_full_loss_gradient_check_two_docs(self, tiny_vocab):
        cfg = make_tiny_config(tiny_vocab.size, d=16, heads=2, layers=1)
        model = MultimodalTransformer.build(cfg, Rng(8), dtype=np.float64)
        doc_pos = Document(id="p", modality="text", text="the capital of balor is venta")
        doc_neg = Document(id="n", modality="text", text="red square")

        def f(params):
            # the two pairs differ in length, so the batch pads the shorter one
            logits = score(model, tiny_vocab, "what is the capital of balor?",
                           [doc_pos, doc_neg])
            return reranker_loss(logits, [1.0, 0.0])

        params = [p for _, p in sorted(model.params.items())]
        err = grad_check(f, params, eps=1e-4, max_coords_per_param=3, rng=Rng(1))
        assert err < 1e-4

    def test_empty_pool_rejected(self, tiny_vocab):
        model = self._head_fixed_model(tiny_vocab)
        with pytest.raises(ValueError, match="no documents"):
            score(model, tiny_vocab, "what?", [])

    def test_image_document_needs_loader(self, tiny_vocab):
        model = self._head_fixed_model(tiny_vocab)
        doc = Document(id="img", modality="image", image_path="x.ppm")
        with pytest.raises(ValueError, match="img is an image but no image loader"):
            score(model, tiny_vocab, "what?", [doc])

    def test_image_cut_by_truncation_loads_no_image(self, tiny_vocab, scene_image_16):
        # the question leaves no room for the image's <img> run, so the pair
        # is scored without the image, and its loader is never called
        question = "what color is the shape in the photo of rimek?"
        head = 1 + len(tiny_vocab.token_ids(question)) + 1
        model = MultimodalTransformer.build(
            make_tiny_config(tiny_vocab.size, max_len=head + 3), Rng(5))
        pool = [Document(id="img", modality="image", image_path="x.ppm"),
                Document(id="t", modality="text", text="a red square")]
        loaded = []

        def loader(doc):
            loaded.append(doc)
            return scene_image_16

        logits = score(model, tiny_vocab, question, pool, image_loader=loader)
        assert logits.shape == (2,)
        assert loaded == []

    def test_padding_invariance_in_ragged_pool(self, tiny_vocab, scene_image_16):
        # each document's logit scored alone equals its logit inside a
        # 20-document pool of different lengths, text and image mixed; a
        # scaled-up head spreads the logits over ~1 so a leak would show
        model = self._head_fixed_model(tiny_vocab)
        model.params["cls_head.w1"].data *= 50
        model.params["cls_head.w2"].data *= 50
        words = "the capital of balor is venta and the animal of rimek is fox".split()
        pool = []
        for i in range(20):
            if i % 5 == 2:
                pool.append(Document(id=f"i{i}", modality="image", image_path=f"{i}.ppm",
                                     snippet=" ".join(words[: i % 4])))
            else:
                pool.append(Document(id=f"t{i}", modality="text",
                                     text=" ".join(words[: 1 + (7 * i) % len(words)])))
        noise = Image(np.random.default_rng(0).random(scene_image_16.pixels.shape))

        def loader(doc):
            return scene_image_16 if doc.id in ("i2", "i12") else noise

        question = "what is the capital of balor?"
        batched = score(model, tiny_vocab, question, pool, image_loader=loader).data
        alone = np.array([score(model, tiny_vocab, question, [d], image_loader=loader).data[0]
                          for d in pool])
        assert batched.dtype == np.float32
        assert np.ptp(alone) > 0.5
        np.testing.assert_allclose(batched, alone, rtol=0, atol=1e-5)


class TestBuildTrainingBatch:
    def _pool(self, n_pos=1, n_dist=10):
        docs = [
            Document(id=f"p{i}", modality="text", text="pos", label="supporting")
            for i in range(n_pos)
        ]
        docs += [
            Document(id=f"d{i}", modality="text", text="neg", label="distractor")
            for i in range(n_dist)
        ]
        return docs

    def test_composition(self):
        docs, labels = build_training_batch(self._pool(1, 10), 4, Rng(3))
        assert len(docs) == 4
        assert labels.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert len({d.id for d in docs}) == 4  # distinct distractors

    def test_deterministic_given_seed(self):
        a, _ = build_training_batch(self._pool(), 4, Rng(3))
        b, _ = build_training_batch(self._pool(), 4, Rng(3))
        assert [d.id for d in a] == [d.id for d in b]

    def test_degenerate_pool(self):
        docs, labels = build_training_batch(self._pool(1, 1), 8, Rng(0))
        assert len(docs) == 2
        assert labels.tolist() == [1.0, 0.0]

    def test_no_positive_rejected(self):
        with pytest.raises(ValueError, match="no supporting"):
            build_training_batch(self._pool(0, 5), 4, Rng(0))
