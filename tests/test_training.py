import hashlib
import math

import numpy as np
import pytest

from fusionqa import vision
from fusionqa.config import (
    FinetuneConfig,
    StageConfig,
    desk_finetune_config,
    desk_stage_config,
    finetune_defaults,
    pretrain_stage_defaults,
)
from fusionqa.dataset import load_dataset
from fusionqa.documents import Document, PretrainSample, QaInstance
from fusionqa.model import MultimodalTransformer
from fusionqa.pipeline import make_image_loader
from fusionqa.synthetic import (
    all_scene_specs,
    caption_samples,
    generate_corpora,
    load_pretrain_corpus,
    render_scene,
    vqa_samples,
)
from fusionqa.reranker import build_training_batch, reranker_loss, score
from fusionqa.tensor import Rng, Tensor, backward
from fusionqa.tokenizer import Vocab
from fusionqa import training
from fusionqa.training import (
    AdamW,
    ParamGroup,
    clip_global_norm,
    clone_model,
    cosine_lr,
    decay_allowed,
    finetune_qa,
    finetune_reranker,
    llrd_rates,
    lm_param_group,
    run_pretrain_stage,
    vision_param_groups,
    write_trace_csv,
)

from conftest import count_encode_image, encode_every_visit, make_tiny_config


def tensor_checksums(model, prefix: str = "") -> dict[str, str]:
    """Content digests of the parameters named with ``prefix``, for checking
    that frozen tensors stay bit-identical."""
    out = {}
    for name, p in model.params.items():
        if name.startswith(prefix):
            h = hashlib.blake2b(digest_size=16)
            h.update(str(p.shape).encode())
            h.update(np.ascontiguousarray(p.data).tobytes())
            out[name] = h.hexdigest()
    return out


class TestSchedules:
    def test_llrd_published_values(self):
        rates = llrd_rates(1e-3, 0.5, 12)
        assert rates[-1] == 1e-3
        assert abs(rates[0] - 1e-3 * 0.5**11) < 1e-15
        assert abs(rates[0] - 4.8828125e-7) < 1e-12

    def test_llrd_factor_one(self):
        assert llrd_rates(2e-4, 1.0, 5) == [2e-4] * 5

    def test_llrd_single_layer(self):
        assert llrd_rates(1e-3, 0.5, 1) == [1e-3]

    def test_llrd_bad_factor(self):
        with pytest.raises(ValueError, match="factor"):
            llrd_rates(1e-3, 0.0, 3)

    def test_cosine_endpoints(self):
        assert cosine_lr(0, 100, 3e-4) == 3e-4
        assert abs(cosine_lr(50, 100, 3e-4) - 1.5e-4) < 1e-19
        assert abs(cosine_lr(100, 100, 3e-4)) < 1e-19

    def test_cosine_non_increasing(self):
        vals = [cosine_lr(s, 200, 1.0) for s in range(201)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("phase", ["stage1", "reranker", "qa"])
    def test_every_phase_follows_cosine_schedule(self, tiny_vocab, phase):
        # 4 steps from base: base at step 0, base/2 at the midpoint, falling
        # towards the 0 that step 4 would reach
        if phase == "stage1":
            vocab = _scene_vocab()
            stage = StageConfig(1, "VE", 2, 1, None, 1e-3, 0.5)
            trace = run_pretrain_stage(_scene_model(vocab), vocab, stage,
                                       _caption_corpus(8, rich=False), Rng(0))
            base = stage.ve_lr
        else:
            model = MultimodalTransformer.build(make_tiny_config(tiny_vocab.size), Rng(3))
            cfg = FinetuneConfig(phase, 1 if phase == "qa" else 4, 1, 2e-3)
            fn = finetune_qa if phase == "qa" else finetune_reranker
            trace = fn(model, tiny_vocab, _qa_dataset(4), cfg, Rng(0))
            base = cfg.lr
        assert [step for step, _, _, _ in trace] == [0, 1, 2, 3]
        lrs = [lr for _, lr, _, _ in trace]
        assert lrs == [base * cosine_lr(step, 4, 1.0) for step in range(4)]
        assert lrs[0] == base
        assert lrs[2] == pytest.approx(base / 2)
        assert all(a > b for a, b in zip(lrs, lrs[1:]))

    def test_cosine_zero_total_rejected(self):
        with pytest.raises(ValueError, match="total_steps"):
            cosine_lr(0, 0, 1e-3)


class TestAdamW:
    def _single(self, value, lr, wd, grad):
        p = Tensor(np.array([value]), requires_grad=True, dtype=np.float64)
        opt = AdamW([ParamGroup(["p"], [p], lr, wd)])
        p.grad = np.array([grad], dtype=np.float64)
        opt.step()
        return float(p.data[0])

    def test_first_step_is_minus_lr(self):
        # bias-corrected m-hat/sqrt(v-hat) equals 1 on the first step
        out = self._single(1.0, lr=0.1, wd=0.0, grad=1.0)
        assert abs(out - 0.9) < 1e-6

    def test_decoupled_decay_with_zero_grad(self):
        out = self._single(2.0, lr=0.1, wd=0.5, grad=0.0)
        assert abs(out - 2.0 * (1 - 0.1 * 0.5)) < 1e-12

    def test_frozen_param_untouched(self):
        p = Tensor(np.array([1.0]), requires_grad=False, dtype=np.float64)
        opt = AdamW([ParamGroup(["p"], [p], 0.1, 0.5)])
        p.grad = np.array([1.0], dtype=np.float64)
        before = p.data.copy()
        opt.step()
        np.testing.assert_array_equal(p.data, before)
        assert "p" not in opt.moments  # no state for frozen tensors

    def test_grad_none_skipped_entirely(self):
        p = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
        opt = AdamW([ParamGroup(["p"], [p], 0.1, 0.5)])
        opt.step()
        assert float(p.data[0]) == 3.0

    def test_decay_exemptions(self):
        assert not decay_allowed("lm.embed")
        assert not decay_allowed("vision.pos_emb")
        assert not decay_allowed("lm.encoder.layer0.norm1.gamma")
        assert not decay_allowed("lm.encoder.layer0.attn.bq")
        assert not decay_allowed("lm.head.b_o")
        assert decay_allowed("lm.head.w_o")
        assert decay_allowed("vision.patch_proj.weight")
        assert decay_allowed("cls_head.w1")


class TestClipping:
    def test_large_gradients_scaled_to_unit_norm(self, fresh_tiny_model):
        model = fresh_tiny_model
        for p in model.params.values():
            p.grad = np.full_like(p.data, 10.0)
        norm = clip_global_norm(model, 1.0)
        assert norm > 1.0
        clipped = math.sqrt(sum(float((p.grad**2).sum()) for p in model.params.values()))
        assert abs(clipped - 1.0) < 1e-4

    def test_small_gradients_untouched(self, fresh_tiny_model):
        model = fresh_tiny_model
        for p in model.params.values():
            p.grad = None
        model.params["lm.embed"].grad = np.full_like(
            model.params["lm.embed"].data, 1e-6
        )
        before = model.params["lm.embed"].grad.copy()
        clip_global_norm(model, 1.0)
        np.testing.assert_array_equal(model.params["lm.embed"].grad, before)


class TestLlrdGroups:
    def test_partition_exact(self, tiny_vocab):
        cfg = make_tiny_config(tiny_vocab.size, layers=3)
        model = MultimodalTransformer.build(cfg, Rng(0))
        groups = vision_param_groups(model, 1e-3, 0.5, 0.05)
        seen = [n for g in groups for n in g.names]
        vision_names = [n for n in model.params if n.startswith("vision.")]
        assert sorted(seen) == sorted(vision_names)
        assert len(seen) == len(set(seen))

    def test_bottom_group_holds_patch_proj_and_positions(self, tiny_vocab):
        cfg = make_tiny_config(tiny_vocab.size, layers=3)
        model = MultimodalTransformer.build(cfg, Rng(0))
        groups = vision_param_groups(model, 1e-3, 0.5, 0.05)
        assert "vision.patch_proj.weight" in groups[0].names
        assert "vision.pos_emb" in groups[0].names
        assert groups[0].base_lr == 1e-3 * 0.25
        assert "vision.final_norm.gamma" in groups[-1].names
        assert groups[-1].base_lr == 1e-3


def _caption_corpus(n, rich=True, seed=0):
    specs = all_scene_specs()
    imgs = {i: render_scene(specs[i]) for i in range(len(specs))}
    return [
        PretrainSample(imgs[i], p, t, "caption")
        for (i, p, t) in caption_samples(n, Rng(seed).child("cap"), rich=rich)
    ]


def _vqa_corpus(n, seed=0):
    specs = all_scene_specs()
    imgs = {i: render_scene(specs[i]) for i in range(len(specs))}
    return [
        PretrainSample(imgs[i], q, a, "vqa")
        for (i, q, a) in vqa_samples(n, Rng(seed).child("vqa"))
    ]


def _scene_vocab():
    from fusionqa.synthetic import _CAPTION_PROMPTS, brief_caption, rich_caption
    from fusionqa.tokenizer import Vocab

    specs = all_scene_specs()
    lines = [rich_caption(s) for s in specs] + [brief_caption(s) for s in specs]
    lines += list(_CAPTION_PROMPTS)
    for s in specs:
        lines.append(f"what color is the {s.shape}?")
        lines.append("what shape is in the image?")
        lines.append(f"where is the {s.color} {s.shape}?")
    return Vocab.build(lines, 300)


def _scene_model(vocab, seed=1):
    cfg = make_tiny_config(vocab.size, d=32, heads=2, layers=1, image_size=32, patch=8)
    return MultimodalTransformer.build(cfg, Rng(seed))


class TestPretrainStages:
    def test_published_stage_table(self):
        s1, s2, s3 = (pretrain_stage_defaults(i) for i in (1, 2, 3))
        assert (s1.trainable, s1.global_batch, s1.epochs) == ("VE", 256, 1)
        assert (s1.lm_lr, s1.ve_lr, s1.ve_llrd_factor) == (None, 1e-3, 0.5)
        assert (s2.trainable, s2.global_batch) == ("VE+LM", 128)
        assert (s2.lm_lr, s2.ve_lr, s2.ve_llrd_factor) == (1e-4, 5e-4, 0.5)
        assert (s3.trainable, s3.global_batch) == ("LM", 128)
        assert (s3.lm_lr, s3.ve_lr) == (1e-4, None)
        for s in (s1, s2, s3):
            assert s.weight_decay == 0.05

    def test_stage1_freezes_lm(self):
        vocab = _scene_vocab()
        model = _scene_model(vocab)
        before = tensor_checksums(model, "lm.")
        before_cls = tensor_checksums(model, "cls_head.")
        stage = StageConfig(1, "VE", 8, 1, None, 1e-3, 0.5)
        run_pretrain_stage(model, vocab, stage, _caption_corpus(24, rich=False), Rng(5))
        assert tensor_checksums(model, "lm.") == before
        assert tensor_checksums(model, "cls_head.") == before_cls
        # and the vision side did change
        assert tensor_checksums(model, "vision.") != before_cls

    def test_stage3_freezes_vision(self):
        vocab = _scene_vocab()
        model = _scene_model(vocab)
        before = tensor_checksums(model, "vision.")
        stage = StageConfig(3, "LM", 8, 1, 1e-3, None, None)
        run_pretrain_stage(model, vocab, stage, _vqa_corpus(24), Rng(5))
        assert tensor_checksums(model, "vision.") == before

    def test_corpus_kind_mismatch_rejected(self):
        vocab = _scene_vocab()
        model = _scene_model(vocab)
        stage = StageConfig(3, "LM", 8, 1, 1e-3, None, None)
        with pytest.raises(ValueError, match="expects 'vqa'"):
            run_pretrain_stage(model, vocab, stage, _caption_corpus(4), Rng(0))

    def test_trace_reproducible_bit_for_bit(self):
        vocab = _scene_vocab()
        stage = StageConfig(2, "VE+LM", 8, 1, 1e-3, 5e-3, 0.5)
        corpus = _caption_corpus(16)
        t1 = run_pretrain_stage(_scene_model(vocab), vocab, stage, corpus, Rng(9))
        t2 = run_pretrain_stage(_scene_model(vocab), vocab, stage, corpus, Rng(9))
        assert t1 == t2

    def test_stage2_loss_decreases_200_steps(self):
        # 500 caption pairs, batch 10, 4 epochs -> 200 optimizer steps
        vocab = _scene_vocab()
        model = _scene_model(vocab)
        stage = StageConfig(2, "VE+LM", 10, 4, 1e-3, 5e-3, 0.5)
        trace = run_pretrain_stage(model, vocab, stage, _caption_corpus(500), Rng(2))
        assert len(trace) == 200
        first = np.mean([loss for _, _, loss, _ in trace[:10]])
        last = np.mean([loss for _, _, loss, _ in trace[-10:]])
        assert last < first
        # seeded regression fixture, loose enough for float32 drift
        assert first == pytest.approx(4.6174, abs=0.05)
        assert last == pytest.approx(1.0677, abs=0.15)


def _qa_dataset(n_questions=6):
    entities = ["balor", "rimek", "senna", "dovar", "melit", "korus"]
    values = ["venta", "opal", "fox", "jade", "wolf", "ruby"]
    instances = []
    for i in range(n_questions):
        entity, value = entities[i % 6], values[i % 6]
        pool = [Document(id=f"sup{i}", modality="text",
                         text=f"the stone of {entity} is {value}", label="supporting")]
        for j in range(3):
            other = entities[(i + j + 1) % 6]
            pool.append(Document(id=f"d{i}_{j}", modality="text",
                                 text=f"the stone of {other} is {values[(i + j + 1) % 6]}",
                                 label="distractor"))
        instances.append(QaInstance(
            qid=f"q{i}", question=f"what is the stone of {entity}?",
            pool=pool, answers=[value], gold_ids=[f"sup{i}"],
        ))
    return instances


class TestFinetunes:
    def test_published_finetune_table(self):
        rr, qa = finetune_defaults("reranker"), finetune_defaults("qa")
        assert (rr.global_batch, rr.epochs, rr.lr) == (256, 3, 2e-4)
        assert (qa.global_batch, qa.epochs, qa.lr) == (16, 5, 5e-5)

    def test_reranker_finetune_freezes_vision(self, tiny_vocab):
        model = MultimodalTransformer.build(make_tiny_config(tiny_vocab.size), Rng(3))
        before = tensor_checksums(model, "vision.")
        cfg = FinetuneConfig("reranker", 4, 1, 1e-3)
        finetune_reranker(model, tiny_vocab, _qa_dataset(4), cfg, Rng(0))
        assert tensor_checksums(model, "vision.") == before
        assert tensor_checksums(model, "cls_head.") != {}

    def test_qa_finetune_freezes_vision_and_cls_head(self, tiny_vocab):
        model = MultimodalTransformer.build(make_tiny_config(tiny_vocab.size), Rng(3))
        before_v = tensor_checksums(model, "vision.")
        before_c = tensor_checksums(model, "cls_head.")
        before_lm = tensor_checksums(model, "lm.")
        cfg = FinetuneConfig("qa", 2, 1, 1e-3)
        finetune_qa(model, tiny_vocab, _qa_dataset(4), cfg, Rng(0))
        assert tensor_checksums(model, "vision.") == before_v
        assert tensor_checksums(model, "cls_head.") == before_c
        assert tensor_checksums(model, "lm.") != before_lm

    def test_task_config_mismatch_rejected(self, tiny_vocab):
        model = MultimodalTransformer.build(make_tiny_config(tiny_vocab.size), Rng(3))
        with pytest.raises(ValueError, match="reranker config"):
            finetune_reranker(model, tiny_vocab, _qa_dataset(2),
                              FinetuneConfig("qa", 2, 1, 1e-3), Rng(0))

    @pytest.mark.parametrize("task", ["reranker", "qa"])
    def test_trace_reproducible_bit_for_bit(self, tiny_vocab, task):
        # dropout 0.1 makes every loss depend on the rng stream it is given
        fn = finetune_reranker if task == "reranker" else finetune_qa

        def run():
            model = MultimodalTransformer.build(
                make_tiny_config(tiny_vocab.size, dropout=0.1), Rng(3))
            trace = fn(model, tiny_vocab, _qa_dataset(4), FinetuneConfig(task, 2, 2, 1e-3),
                       Rng(9))
            return trace, tensor_checksums(model)

        assert run() == run()

    def test_reranker_step_scores_pool_in_one_pass(self, tiny_vocab, monkeypatch):
        # one question per step: one batched score call and one backward
        calls = {"backward": 0, "score": []}
        real_backward, real_score = training.backward, training.score

        def counting_backward(loss):
            calls["backward"] += 1
            return real_backward(loss)

        def counting_score(model, vocab, question, docs, **kwargs):
            calls["score"].append(len(docs))
            return real_score(model, vocab, question, docs, **kwargs)

        monkeypatch.setattr(training, "backward", counting_backward)
        monkeypatch.setattr(training, "score", counting_score)
        model = MultimodalTransformer.build(make_tiny_config(tiny_vocab.size), Rng(3))
        trace = finetune_reranker(model, tiny_vocab, _qa_dataset(3),
                                  FinetuneConfig("reranker", 4, 1, 1e-3), Rng(0))
        assert len(trace) == 3
        assert calls["backward"] == 3
        assert calls["score"] == [4, 4, 4]

    @pytest.mark.parametrize("task", ["reranker", "qa"])
    def test_trace_records_pre_clip_grad_norm(self, tiny_vocab, monkeypatch, tmp_path, task):
        norms = []
        real_clip = training.clip_global_norm

        def recording_clip(model, max_norm=1.0):
            norms.append(real_clip(model, max_norm))
            return norms[-1]

        monkeypatch.setattr(training, "clip_global_norm", recording_clip)
        fn = finetune_reranker if task == "reranker" else finetune_qa
        model = MultimodalTransformer.build(make_tiny_config(tiny_vocab.size), Rng(3))
        trace = fn(model, tiny_vocab, _qa_dataset(2), FinetuneConfig(task, 1, 1, 1e-3), Rng(0))
        assert [t[3] for t in trace] == norms
        assert all(math.isfinite(n) and n > 0 for n in norms)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,lr,loss,grad_norm"
        assert [float(line.split(",")[3]) for line in lines[1:]] == pytest.approx(norms)

    def test_clone_model_is_independent(self, tiny_model):
        clone = clone_model(tiny_model)
        clone.params["lm.embed"].data += 1.0
        assert not np.allclose(clone.params["lm.embed"].data,
                               tiny_model.params["lm.embed"].data)


@pytest.fixture(scope="module")
def image_corpora(tmp_path_factory):
    # pools hold image documents; every pretraining sample has its own image
    out = tmp_path_factory.mktemp("image_corpora")
    generate_corpora(out, seed=5, n_entities=8, n_captions=8, n_vqa=12, n_train=4,
                     n_heldout=2, n_distractors=3, vocab_size=300)
    return out


def _stage_config(phase, batch):
    if phase == "stage2":
        return StageConfig(2, "VE+LM", batch, 2, 1e-3, 1e-3, 0.5)
    return StageConfig(3, "LM", batch, 2, 1e-3, None, None)


def _tiny_image_model(vocab, seed, dropout=0.0):
    return MultimodalTransformer.build(
        make_tiny_config(vocab.size, image_size=32, dropout=dropout), Rng(seed))


def _run_phase(corpora, phase, seed):
    """Train a fresh 32-pixel tiny model for two epochs of one phase on
    freshly loaded images; returns (trace, weight checksums)."""
    vocab = Vocab.load(corpora / "vocab.txt")
    model = _tiny_image_model(vocab, seed)
    rng = Rng(100 + seed)
    if phase == "stage3":
        corpus = load_pretrain_corpus(corpora / "pretrain_stage3.jsonl")
        trace = run_pretrain_stage(model, vocab, _stage_config(phase, 4), corpus, rng)
    elif phase == "reranker":
        trace = finetune_reranker(model, vocab, load_dataset(corpora / "qa_train.jsonl"),
                                  FinetuneConfig("reranker", 4, 2, 1e-3), rng,
                                  image_loader=make_image_loader())
    else:
        trace = finetune_qa(model, vocab, load_dataset(corpora / "qa_train.jsonl"),
                            FinetuneConfig("qa", 2, 2, 1e-3), rng,
                            image_loader=make_image_loader(), extra_distractors=1)
    return trace, tensor_checksums(model)


class TestFrozenVisionMemo:
    """Serving the frozen vision encoder's rows from the image memo changes
    no number; where it would, every visit encodes."""

    @pytest.mark.parametrize("phase", ["stage3", "reranker", "qa"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trace_and_weights_match_encoding_every_visit(self, image_corpora, monkeypatch,
                                                          phase, seed):
        encoded = count_encode_image(monkeypatch)
        with_memo = _run_phase(image_corpora, phase, seed)
        memo_calls = len(encoded)
        encoded.clear()
        monkeypatch.setattr(vision, "image_rows", encode_every_visit)
        assert _run_phase(image_corpora, phase, seed) == with_memo
        # the second epoch revisits every image, so the memo served some rows
        assert 0 < memo_calls < len(encoded)

    @pytest.mark.parametrize("phase, dropout, every_visit", [
        ("stage2", 0.0, True),  # vision trainable
        ("stage3", 0.1, True),  # vision frozen, its dropout active
        ("stage3", 0.0, False),
    ], ids=["stage2", "stage3_dropout", "stage3"])
    def test_encodes_every_visit_unless_frozen_without_dropout(self, image_corpora,
                                                               monkeypatch, phase, dropout,
                                                               every_visit):
        vocab = Vocab.load(image_corpora / "vocab.txt")
        model = _tiny_image_model(vocab, 0, dropout=dropout)
        samples = load_pretrain_corpus(image_corpora / f"pretrain_{phase}.jsonl")
        # each image twice per one-step epoch, so a step revisits it at
        # unchanged weights even while the vision encoder trains
        corpus = samples + samples
        encoded = count_encode_image(monkeypatch)
        run_pretrain_stage(model, vocab, _stage_config(phase, len(corpus)), corpus, Rng(1))
        assert len(encoded) == (2 * len(corpus) if every_visit else len(samples))


_PHASE_TRAINABLE = {"stage1": ("vision.",), "stage2": ("vision.", "lm."), "stage3": ("lm.",),
                    "reranker": ("lm.", "cls_head."), "qa": ("lm.",)}


def _phase_members(corpora, model, vocab, phase):
    """(members, loss of a member list) for one ragged step of ``phase``."""
    rng = Rng(11)
    loader = make_image_loader()
    if phase.startswith("stage"):
        samples = load_pretrain_corpus(corpora / f"pretrain_{phase}.jsonl")
        assert len({len(vocab.token_ids(s.prompt)) for s in samples}) > 1  # ragged inputs
        return samples, lambda ms: training._pretrain_loss(model, vocab, ms, rng)
    insts = load_dataset(corpora / "qa_train.jsonl")
    if phase == "qa":
        return insts, lambda ms: training._answer_loss(model, vocab, ms, rng, loader, 0)
    docs, labels = build_training_batch(insts[0].pool, 4, Rng(0))

    def loss(ms):
        logits = score(model, vocab, insts[0].question, [d for d, _ in ms],
                       image_loader=loader, train=True, rng=rng)
        return reranker_loss(logits, [label for _, label in ms])

    return list(zip(docs, labels)), loss


def _loss_and_grads(model, loss_fn):
    model.zero_grads()
    loss = loss_fn()
    backward(loss)
    return loss.item(), {n: p.grad.copy() for n, p in model.params.items() if p.grad is not None}


class TestOneGraphPerStep:
    """Every phase builds one graph per step from its padded members; the
    result is the per-member path's mean loss and mean gradient."""

    @pytest.mark.parametrize("phase", ["stage1", "stage2", "stage3", "reranker", "qa"])
    def test_batched_step_matches_per_member(self, image_corpora, phase):
        vocab = Vocab.load(image_corpora / "vocab.txt")
        model = _tiny_image_model(vocab, 4)
        model.set_trainable(_PHASE_TRAINABLE[phase])
        members, loss_fn = _phase_members(image_corpora, model, vocab, phase)
        batched_loss, batched = _loss_and_grads(model, lambda: loss_fn(members))
        singles = [_loss_and_grads(model, lambda: loss_fn([m])) for m in members]
        assert abs(batched_loss - np.mean([loss for loss, _ in singles])) < 1e-5
        assert sorted(batched) == sorted(singles[0][1])
        for name, grad in batched.items():
            per_member = np.mean([g[name] for _, g in singles], axis=0)
            np.testing.assert_allclose(grad, per_member, rtol=0, atol=1e-5, err_msg=name)

    @pytest.mark.parametrize("phase", ["stage1", "stage2", "stage3", "reranker", "qa"])
    def test_one_backward_per_step(self, image_corpora, monkeypatch, phase):
        calls = []
        real_backward = training.backward

        def counting_backward(loss):
            calls.append(loss)
            return real_backward(loss)

        monkeypatch.setattr(training, "backward", counting_backward)
        vocab = Vocab.load(image_corpora / "vocab.txt")
        model = _tiny_image_model(vocab, 5)
        if phase.startswith("stage"):
            corpus = load_pretrain_corpus(image_corpora / f"pretrain_{phase}.jsonl")
            stage = StageConfig(int(phase[-1]), {"stage1": "VE", "stage2": "VE+LM",
                                                 "stage3": "LM"}[phase],
                                4, 2, None if phase == "stage1" else 1e-3,
                                None if phase == "stage3" else 1e-3, 0.5)
            trace = run_pretrain_stage(model, vocab, stage, corpus, Rng(1))
        else:
            fn = finetune_qa if phase == "qa" else finetune_reranker
            trace = fn(model, vocab, load_dataset(image_corpora / "qa_train.jsonl"),
                       FinetuneConfig(phase, 2 if phase == "qa" else 4, 2, 1e-3), Rng(1),
                       image_loader=make_image_loader())
        assert len(trace) > 2
        assert len(calls) == len(trace)


class TestDeskConfigs:
    def test_desk_stage_preserves_published_structure(self):
        for stage_id in (1, 2, 3):
            desk = desk_stage_config(stage_id)
            pub = pretrain_stage_defaults(stage_id)
            assert desk.trainable == pub.trainable
        desk2 = desk_stage_config(2)
        assert desk2.ve_lr / desk2.lm_lr == pytest.approx(5.0)  # published ratio

    def test_desk_finetune_tasks(self):
        assert desk_finetune_config("reranker").task == "reranker"
        assert desk_finetune_config("qa").task == "qa"
        assert desk_finetune_config("reranker").epochs == 3
