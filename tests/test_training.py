import math

import numpy as np
import pytest

from fusionqa.config import (
    FinetuneConfig,
    StageConfig,
    desk_finetune_config,
    desk_stage_config,
    finetune_defaults,
    pretrain_stage_defaults,
)
from fusionqa.documents import Document, PretrainSample, QaInstance
from fusionqa.model import MultimodalTransformer
from fusionqa.synthetic import all_scene_specs, caption_samples, render_scene, vqa_samples
from fusionqa.tensor import Rng, Tensor
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
    tensor_checksums,
    vision_param_groups,
)

from conftest import make_tiny_config


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
        assert [step for step, _, _ in trace] == [0, 1, 2, 3]
        lrs = [lr for _, lr, _ in trace]
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
        first = np.mean([loss for _, _, loss in trace[:10]])
        last = np.mean([loss for _, _, loss in trace[-10:]])
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

    def test_clone_model_is_independent(self, tiny_model):
        clone = clone_model(tiny_model)
        clone.params["lm.embed"].data += 1.0
        assert not np.allclose(clone.params["lm.embed"].data,
                               tiny_model.params["lm.embed"].data)


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
