import dataclasses
import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from fusionqa import vision
from fusionqa.config import (
    FinetuneConfig,
    StageConfig,
    desk_finetune_config,
    desk_stage_config,
    finetune_defaults,
    model_profile,
    pretrain_stage_defaults,
)
from fusionqa.dataset import load_dataset
from fusionqa.documents import Document, PretrainSample, QaInstance
from fusionqa.images import Image
from fusionqa.model import MultimodalTransformer
from fusionqa.pipeline import make_image_loader
from fusionqa.synthetic import (
    SCENE_SPECS,
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
    VISION_LLRD_FACTOR,
    WEIGHT_DECAY,
    AdamW,
    clip_global_norm,
    clone_model,
    cosine_lr,
    decay_allowed,
    finetune_qa,
    finetune_reranker,
    param_lrs,
    run_pretrain_stage,
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
    def test_llrd_published_values(self, tiny_vocab):
        # 12 vision layers, as in the published base model
        model = MultimodalTransformer.build(make_tiny_config(tiny_vocab.size, layers=12), Rng(0))
        lrs = param_lrs(model, {"vision": 1e-3})
        assert lrs["vision.layer11.mlp.w1"] == 1e-3
        assert abs(lrs["vision.layer0.mlp.w1"] - 1e-3 * 0.5**11) < 1e-15
        assert abs(lrs["vision.layer0.mlp.w1"] - 4.8828125e-7) < 1e-12

    def test_llrd_single_layer(self, tiny_vocab):
        model = MultimodalTransformer.build(make_tiny_config(tiny_vocab.size), Rng(0))
        lrs = param_lrs(model, {"vision": 1e-3})
        assert lrs == {n: 1e-3 for n in model.params if n.startswith("vision.")}

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
            stage = StageConfig(1, 2, 1, None, 1e-3)
            trace = run_pretrain_stage(_scene_model(vocab), vocab, stage,
                                       _caption_corpus(8, rich=False), Rng(0))
            base = stage.ve_lr
        else:
            model = MultimodalTransformer.build(make_tiny_config(tiny_vocab.size), Rng(3))
            cfg = FinetuneConfig(1 if phase == "qa" else 4, 1, 2e-3)
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


def _scalar_params(**values):
    """A stand-in model whose parameters are float64 scalars, one per name."""
    return SimpleNamespace(params={
        name: Tensor(np.array([v]), requires_grad=True, dtype=np.float64)
        for name, v in values.items()
    })


class TestAdamW:
    def _single(self, name, value, lr, grad):
        model = _scalar_params(**{name: value})
        opt = AdamW(model, {name: lr})
        p = model.params[name]
        p.grad = np.array([grad], dtype=np.float64)
        opt.step()
        return float(p.data[0])

    def test_first_step_is_minus_lr(self):
        # bias-corrected m-hat/sqrt(v-hat) equals 1 on the first step; a
        # bias takes no weight decay
        out = self._single("lm.head.b_o", 1.0, lr=0.1, grad=1.0)
        assert abs(out - 0.9) < 1e-6

    def test_decoupled_decay_with_zero_grad(self):
        out = self._single("lm.head.w_o", 2.0, lr=0.1, grad=0.0)
        assert abs(out - 2.0 * (1 - 0.1 * WEIGHT_DECAY)) < 1e-12

    def test_frozen_param_untouched(self):
        # a tensor outside the map is frozen, holds no state and never moves
        model = _scalar_params(trained=1.0, frozen=1.0)
        trained, frozen = model.params["trained"], model.params["frozen"]
        opt = AdamW(model, {"trained": 0.1})
        assert trained.requires_grad and not frozen.requires_grad
        assert [entry[0] for entry in opt.entries] == [trained]
        trained.grad = np.array([1.0])
        frozen.grad = np.array([1.0])
        opt.step()
        assert float(trained.data[0]) != 1.0
        assert float(frozen.data[0]) == 1.0

    def test_grad_none_skipped_entirely(self):
        model = _scalar_params(w=3.0, b=1.0)
        opt = AdamW(model, {"w": 0.1, "b": 0.1})
        model.params["b"].grad = np.array([1.0])
        opt.step()
        assert float(model.params["w"].data[0]) == 3.0  # no decay either
        assert float(model.params["b"].data[0]) != 1.0

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
        norm = clip_global_norm(model)
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
        clip_global_norm(model)
        np.testing.assert_array_equal(model.params["lm.embed"].grad, before)


class TestLlrdGroups:
    """``param_lrs`` on a 3-layer vision encoder."""

    @pytest.fixture()
    def model(self, tiny_vocab):
        return MultimodalTransformer.build(make_tiny_config(tiny_vocab.size, layers=3), Rng(0))

    def test_partition_exact(self, model):
        # every vision tensor once, at its layer's share of the base rate
        lrs = param_lrs(model, {"vision": 1e-3})
        assert list(lrs) == [n for n in model.params if n.startswith("vision.")]
        for layer, share in enumerate((0.25, 0.5, 1.0)):
            in_layer = [n for n in lrs if n.startswith(f"vision.layer{layer}.")]
            assert in_layer and {lrs[n] for n in in_layer} == {1e-3 * share}

    def test_bottom_group_holds_patch_proj_and_positions(self, model):
        lrs = param_lrs(model, {"vision": 1e-3})
        assert lrs["vision.patch_proj.weight"] == 1e-3 * 0.25
        assert lrs["vision.patch_proj.bias"] == 1e-3 * 0.25
        assert lrs["vision.pos_emb"] == 1e-3 * 0.25
        assert lrs["vision.final_norm.gamma"] == 1e-3
        assert lrs["vision.final_norm.beta"] == 1e-3

    def test_components_only_when_given(self, model):
        # cls_head.* only when it has a rate; a None rate freezes lm.*
        lm_names = [n for n in model.params if n.startswith("lm.")]
        head_names = [n for n in model.params if n.startswith("cls_head.")]
        assert head_names and lm_names
        assert param_lrs(model, {"lm": 2e-3}) == {n: 2e-3 for n in lm_names}
        both = param_lrs(model, {"lm": 2e-3, "cls_head": 3e-3})
        assert both == {**{n: 2e-3 for n in lm_names}, **{n: 3e-3 for n in head_names}}
        vision_only = param_lrs(model, {"vision": 1e-3, "lm": None})
        assert vision_only and all(n.startswith("vision.") for n in vision_only)


def _caption_corpus(n, rich=True, seed=0):
    imgs = {i: render_scene(spec) for i, spec in enumerate(SCENE_SPECS)}
    return [
        PretrainSample(imgs[i], p, t, "caption")
        for (i, p, t) in caption_samples(n, Rng(seed).child("cap"), rich=rich)
    ]


def _vqa_corpus(n, seed=0):
    imgs = {i: render_scene(spec) for i, spec in enumerate(SCENE_SPECS)}
    return [
        PretrainSample(imgs[i], q, a, "vqa")
        for (i, q, a) in vqa_samples(n, Rng(seed).child("vqa"))
    ]


def _scene_vocab():
    from fusionqa.synthetic import _CAPTION_PROMPTS, brief_caption, rich_caption
    from fusionqa.tokenizer import Vocab

    lines = [rich_caption(s) for s in SCENE_SPECS] + [brief_caption(s) for s in SCENE_SPECS]
    lines += list(_CAPTION_PROMPTS)
    for s in SCENE_SPECS:
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
        assert (s1.global_batch, s1.epochs, s1.lm_lr, s1.ve_lr) == (256, 1, None, 1e-3)
        assert (s2.global_batch, s2.lm_lr, s2.ve_lr) == (128, 1e-4, 5e-4)
        assert (s3.global_batch, s3.lm_lr, s3.ve_lr) == (128, 1e-4, None)
        assert (WEIGHT_DECAY, VISION_LLRD_FACTOR) == (0.05, 0.5)

    def test_stage_without_rates_rejected(self):
        with pytest.raises(ValueError, match="neither lm_lr nor ve_lr"):
            StageConfig(2, 8, 1, None, None)

    @pytest.mark.parametrize("stage_id, components", [
        (1, ("vision",)), (2, ("vision", "lm")), (3, ("lm",)),
    ])
    def test_trainable_set_follows_rates(self, monkeypatch, stage_id, components):
        # the rates alone decide what trains: the stage's map names exactly
        # its components' tensors, at the stage's rates, and only those train
        maps = []
        real_adamw = training.AdamW

        def recording_adamw(model, lrs):
            maps.append(lrs)
            return real_adamw(model, lrs)

        monkeypatch.setattr(training, "AdamW", recording_adamw)
        vocab = _scene_vocab()
        model = _scene_model(vocab)
        stage = dataclasses.replace(desk_stage_config(stage_id), epochs=1)
        corpus = _vqa_corpus(2) if stage_id == 3 else _caption_corpus(2, rich=stage_id == 2)
        run_pretrain_stage(model, vocab, stage, corpus, Rng(0))
        (lrs,) = maps
        expected = [n for n in model.params if n.split(".")[0] in components]
        assert list(lrs) == expected
        assert [n for n, p in model.params.items() if p.requires_grad] == expected
        if "vision" in components:
            assert lrs["vision.final_norm.gamma"] == stage.ve_lr
        if "lm" in components:
            assert {lrs[n] for n in expected if n.startswith("lm.")} == {stage.lm_lr}

    def test_stage1_freezes_lm(self):
        vocab = _scene_vocab()
        model = _scene_model(vocab)
        before = tensor_checksums(model, "lm.")
        before_cls = tensor_checksums(model, "cls_head.")
        stage = StageConfig(1, 8, 1, None, 1e-3)
        run_pretrain_stage(model, vocab, stage, _caption_corpus(24, rich=False), Rng(5))
        assert tensor_checksums(model, "lm.") == before
        assert tensor_checksums(model, "cls_head.") == before_cls
        # and the vision side did change
        assert tensor_checksums(model, "vision.") != before_cls

    def test_stage3_freezes_vision(self):
        vocab = _scene_vocab()
        model = _scene_model(vocab)
        before = tensor_checksums(model, "vision.")
        stage = StageConfig(3, 8, 1, 1e-3, None)
        run_pretrain_stage(model, vocab, stage, _vqa_corpus(24), Rng(5))
        assert tensor_checksums(model, "vision.") == before

    def test_corpus_kind_mismatch_rejected(self):
        vocab = _scene_vocab()
        model = _scene_model(vocab)
        stage = StageConfig(3, 8, 1, 1e-3, None)
        with pytest.raises(ValueError, match="expects 'vqa'"):
            run_pretrain_stage(model, vocab, stage, _caption_corpus(4), Rng(0))

    def test_trace_reproducible_bit_for_bit(self):
        vocab = _scene_vocab()
        stage = StageConfig(2, 8, 1, 1e-3, 5e-3)
        corpus = _caption_corpus(16)
        t1 = run_pretrain_stage(_scene_model(vocab), vocab, stage, corpus, Rng(9))
        t2 = run_pretrain_stage(_scene_model(vocab), vocab, stage, corpus, Rng(9))
        assert t1 == t2

    def test_stage2_loss_decreases_200_steps(self):
        # 500 caption pairs, batch 10, 4 epochs -> 200 optimizer steps
        vocab = _scene_vocab()
        model = _scene_model(vocab)
        stage = StageConfig(2, 10, 4, 1e-3, 5e-3)
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
        cfg = FinetuneConfig(4, 1, 1e-3)
        finetune_reranker(model, tiny_vocab, _qa_dataset(4), cfg, Rng(0))
        assert tensor_checksums(model, "vision.") == before
        assert tensor_checksums(model, "cls_head.") != {}

    def test_qa_finetune_freezes_vision_and_cls_head(self, tiny_vocab):
        model = MultimodalTransformer.build(make_tiny_config(tiny_vocab.size), Rng(3))
        before_v = tensor_checksums(model, "vision.")
        before_c = tensor_checksums(model, "cls_head.")
        before_lm = tensor_checksums(model, "lm.")
        cfg = FinetuneConfig(2, 1, 1e-3)
        finetune_qa(model, tiny_vocab, _qa_dataset(4), cfg, Rng(0))
        assert tensor_checksums(model, "vision.") == before_v
        assert tensor_checksums(model, "cls_head.") == before_c
        assert tensor_checksums(model, "lm.") != before_lm

    def test_qa_finetune_rejects_negative_extra_distractors(self, tiny_vocab):
        model = MultimodalTransformer.build(make_tiny_config(tiny_vocab.size), Rng(3))
        with pytest.raises(ValueError, match="extra_distractors must be >= 0, got -1"):
            finetune_qa(model, tiny_vocab, _qa_dataset(4), FinetuneConfig(2, 1, 1e-3), Rng(0),
                        extra_distractors=-1)
        # rejected before AdamW, which would freeze the vision encoder
        assert all(p.requires_grad for p in model.params.values())

    @pytest.mark.parametrize("task", ["reranker", "qa"])
    def test_trace_reproducible_bit_for_bit(self, tiny_vocab, task):
        # dropout 0.1 makes every loss depend on the rng stream it is given
        fn = finetune_reranker if task == "reranker" else finetune_qa

        def run():
            model = MultimodalTransformer.build(
                make_tiny_config(tiny_vocab.size, dropout=0.1), Rng(3))
            trace = fn(model, tiny_vocab, _qa_dataset(4), FinetuneConfig(2, 2, 1e-3),
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
                                  FinetuneConfig(4, 1, 1e-3), Rng(0))
        assert len(trace) == 3
        assert calls["backward"] == 3
        assert calls["score"] == [4, 4, 4]

    @pytest.mark.parametrize("task", ["reranker", "qa"])
    def test_trace_records_pre_clip_grad_norm(self, tiny_vocab, monkeypatch, tmp_path, task):
        norms = []
        real_clip = training.clip_global_norm

        def recording_clip(model):
            norms.append(real_clip(model))
            return norms[-1]

        monkeypatch.setattr(training, "clip_global_norm", recording_clip)
        fn = finetune_reranker if task == "reranker" else finetune_qa
        model = MultimodalTransformer.build(make_tiny_config(tiny_vocab.size), Rng(3))
        trace = fn(model, tiny_vocab, _qa_dataset(2), FinetuneConfig(1, 1, 1e-3), Rng(0))
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
        return StageConfig(2, batch, 2, 1e-3, 1e-3)
    return StageConfig(3, batch, 2, 1e-3, None)


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
                                  FinetuneConfig(4, 2, 1e-3), rng,
                                  image_loader=make_image_loader())
    else:
        trace = finetune_qa(model, vocab, load_dataset(corpora / "qa_train.jsonl"),
                            FinetuneConfig(2, 2, 1e-3), rng,
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


_PHASE_RATES = {"stage1": {"vision": 1e-3}, "stage2": {"vision": 1e-3, "lm": 1e-3},
                "stage3": {"lm": 1e-3}, "reranker": {"lm": 1e-3, "cls_head": 1e-3},
                "qa": {"lm": 1e-3}}


def _phase_members(corpora, model, vocab, phase, seed=11):
    """(members, loss of a member list) for one ragged step of ``phase``,
    its step Rng seeded with ``seed``."""
    rng = Rng(seed)
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
                       image_loader=loader, rng=rng)
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
        AdamW(model, param_lrs(model, _PHASE_RATES[phase]))
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
            stage = StageConfig(int(phase[-1]), 4, 2, None if phase == "stage1" else 1e-3,
                                None if phase == "stage3" else 1e-3)
            trace = run_pretrain_stage(model, vocab, stage, corpus, Rng(1))
        else:
            fn = finetune_qa if phase == "qa" else finetune_reranker
            trace = fn(model, vocab, load_dataset(image_corpora / "qa_train.jsonl"),
                       FinetuneConfig(2 if phase == "qa" else 4, 2, 1e-3), Rng(1),
                       image_loader=make_image_loader())
        assert len(trace) > 2
        assert len(calls) == len(trace)


def _is_vision_bias_or_norm(name):
    leaf = name.rsplit(".", 1)[-1]
    return name.startswith("vision.") and (leaf.startswith("b") or leaf == "gamma")


class TestStackedVisionPass:
    """A step's images go through the trainable vision encoder in one
    stacked pass. Its rows and the loss are the per-image passes' bit for
    bit; so is every gradient but the vision biases' and norms', which now
    sum over all the step's patch rows in one reduction."""

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stage2_step_matches_per_image_passes(self, image_corpora, monkeypatch, dtype,
                                                  tol, seed):
        vocab = Vocab.load(image_corpora / "vocab.txt")
        samples = load_pretrain_corpus(image_corpora / "pretrain_stage2.jsonl")
        model = MultimodalTransformer.build(model_profile("desk", vocab_size=vocab.size),
                                            Rng(seed), dtype=dtype)
        AdamW(model, param_lrs(model, _PHASE_RATES["stage2"]))

        def step():
            return _loss_and_grads(model, lambda: training._pretrain_loss(
                model, vocab, samples, Rng(100 + seed)))

        loss, grads = step()
        monkeypatch.setattr(vision, "image_rows", encode_every_visit)
        per_image_loss, per_image = step()
        assert loss == per_image_loss
        assert sorted(grads) == sorted(per_image)
        assert sum(map(_is_vision_bias_or_norm, grads)) == 21
        for name, want in per_image.items():
            if _is_vision_bias_or_norm(name):
                assert np.abs(grads[name] - want).max() <= tol * np.abs(want).max(), name
            else:
                assert grads[name].tobytes() == want.tobytes(), name

    def test_mixed_image_sizes_fail_naming_the_image(self, image_corpora, monkeypatch):
        vocab = Vocab.load(image_corpora / "vocab.txt")
        model = MultimodalTransformer.build(make_tiny_config(vocab.size, image_size=16), Rng(0))
        AdamW(model, param_lrs(model, _PHASE_RATES["stage2"]))
        big = load_pretrain_corpus(image_corpora / "pretrain_stage2.jsonl")[0]
        small = dataclasses.replace(big, image=Image(big.image.pixels[:16, :16]))
        encoded = count_encode_image(monkeypatch)
        with pytest.raises(ValueError, match="image 1 yields 16 patches, config expects 4"):
            training._pretrain_loss(model, vocab, [small, big], Rng(0))
        # both images went to the step's one stacked pass
        assert [id(img) for img in encoded] == [id(small.image), id(big.image)]


class TestStepRng:
    """Dropout runs iff the forward is given an Rng, so a phase whose step
    dropped its Rng would silently train without dropout."""

    @pytest.mark.parametrize("phase", ["stage1", "stage2", "stage3", "reranker", "qa"])
    def test_step_loss_depends_on_step_rng(self, image_corpora, monkeypatch, phase):
        given = []
        for name in ("encode_multimodal", "qa_loss", "score"):
            def recording(*args, _real=getattr(training, name), **kwargs):
                given.append(kwargs.get("rng"))
                return _real(*args, **kwargs)

            monkeypatch.setattr(training, name, recording)
        vocab = Vocab.load(image_corpora / "vocab.txt")
        model = _tiny_image_model(vocab, 4, dropout=0.1)
        losses = []
        for seed in (11, 12, 11):
            if phase == "reranker":
                # a batch of the whole pool, so the step Rng draws no distractors
                insts = load_dataset(image_corpora / "qa_train.jsonl")[:1]
                loss = training._rerank_loss(model, vocab, insts, Rng(seed),
                                             make_image_loader(), len(insts[0].pool))
            else:
                members, loss_fn = _phase_members(image_corpora, model, vocab, phase, seed)
                loss = loss_fn(members)
            losses.append(loss.item())
        assert losses[0] != losses[1]
        assert losses[0] == losses[2]
        # and each forward call the step makes through training.py got it
        assert given and None not in given


class TestDeskConfigs:
    def test_desk_stage_preserves_published_structure(self):
        for stage_id in (1, 2, 3):
            desk = desk_stage_config(stage_id)
            pub = pretrain_stage_defaults(stage_id)
            assert (desk.lm_lr is None, desk.ve_lr is None) == (pub.lm_lr is None,
                                                                pub.ve_lr is None)
        desk2 = desk_stage_config(2)
        assert desk2.ve_lr / desk2.lm_lr == pytest.approx(5.0)  # published ratio

    def test_desk_finetune_tasks(self):
        rr, qa = desk_finetune_config("reranker"), desk_finetune_config("qa")
        assert (rr.global_batch, rr.epochs, rr.lr) == (8, 3, 2e-3)
        assert (qa.global_batch, qa.epochs, qa.lr) == (4, 12, 1.5e-3)
