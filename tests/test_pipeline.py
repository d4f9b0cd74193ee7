import json
import os

import numpy as np
import pytest

from fusionqa.checkpoint import save_checkpoint
from fusionqa.cli import main
from fusionqa.config import GenerationConfig, SelectionConfig, model_profile
from fusionqa.dataset import _doc_to_json, load_dataset
from fusionqa.documents import Document, QaInstance
from fusionqa.model import MultimodalTransformer
from fusionqa.pipeline import evaluate_dataset, make_image_loader, run_pipeline
from fusionqa.synthetic import generate_corpora
from fusionqa.tensor import Rng
from fusionqa.tokenizer import Vocab

from conftest import make_tiny_config


@pytest.fixture(scope="module")
def corpora_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpora")
    generate_corpora(out, seed=11, n_entities=12, n_captions=10, n_vqa=10,
                     n_train=8, n_heldout=4, vocab_size=420)
    return out


@pytest.fixture(scope="module")
def desk_models(corpora_dir):
    vocab = Vocab.load(corpora_dir / "vocab.txt")
    cfg = model_profile("desk", vocab_size=vocab.size)
    reranker = MultimodalTransformer.build(cfg, Rng(1))
    qa = MultimodalTransformer.build(cfg, Rng(2))
    return vocab, reranker, qa


class TestRunPipeline:
    def test_deterministic(self, corpora_dir, desk_models):
        vocab, rr, qa = desk_models
        inst = load_dataset(corpora_dir / "qa_heldout.jsonl")[0]
        sel, gen = SelectionConfig(), GenerationConfig(max_new_tokens=8)
        a = run_pipeline(inst, rr, qa, sel, gen, vocab)
        b = run_pipeline(inst, rr, qa, sel, gen, vocab)
        assert a.selected_ids == b.selected_ids
        assert a.answer == b.answer
        np.testing.assert_array_equal(a.retrieved.scores, b.retrieved.scores)

    def test_single_supporting_doc_always_selected(self, desk_models):
        vocab, rr, qa = desk_models
        inst = QaInstance(
            qid="one", question="what is the stone of balor?",
            pool=[Document(id="only", modality="text",
                           text="the stone of balor is opal", label="supporting")],
            answers=["opal"], gold_ids=["only"],
        )
        res = run_pipeline(inst, rr, qa, SelectionConfig(),
                           GenerationConfig(max_new_tokens=4), vocab)
        assert res.selected_ids == ["only"]
        assert res.metrics["retr_f1"] == 1.0

    def test_tau_one_k_one_selects_single_top(self, corpora_dir, desk_models):
        vocab, rr, qa = desk_models
        inst = load_dataset(corpora_dir / "qa_heldout.jsonl")[1]
        res = run_pipeline(inst, rr, qa, SelectionConfig(tau=1.0, k=1),
                           GenerationConfig(max_new_tokens=4), vocab)
        assert len(res.selected_ids) == 1
        top = int(np.argmax(res.retrieved.scores))
        assert res.selected_ids[0] == inst.pool[top].id

    def test_vocab_mismatch_rejected(self, desk_models):
        vocab, rr, _ = desk_models
        other_cfg = model_profile("desk", vocab_size=vocab.size + 3)
        other = MultimodalTransformer.build(other_cfg, Rng(3))
        inst = QaInstance(
            qid="x", question="q",
            pool=[Document(id="d", modality="text", text="t", label="supporting")],
            answers=["a"], gold_ids=["d"],
        )
        with pytest.raises(ValueError, match="vocab"):
            run_pipeline(inst, rr, other, SelectionConfig(), GenerationConfig(), vocab)

    def test_evaluate_dataset_aggregates(self, corpora_dir, desk_models):
        vocab, rr, qa = desk_models
        instances = load_dataset(corpora_dir / "qa_heldout.jsonl")[:2]
        results, agg = evaluate_dataset(instances, rr, qa, SelectionConfig(),
                                        GenerationConfig(max_new_tokens=4), vocab)
        assert len(results) == 2
        assert set(agg) == {"em", "f1", "retr_f1"}
        for v in agg.values():
            assert 0.0 <= v <= 1.0


class TestGenSynthetic:
    def test_outputs_exist(self, corpora_dir):
        for name in ("pretrain_stage1.jsonl", "pretrain_stage2.jsonl",
                     "pretrain_stage3.jsonl", "qa_train.jsonl",
                     "qa_heldout.jsonl", "vocab.txt"):
            assert (corpora_dir / name).is_file()
        assert (corpora_dir / "images").is_dir()

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            generate_corpora(out, seed=5, n_entities=8, n_captions=6, n_vqa=6,
                             n_train=6, n_heldout=2, vocab_size=400)
        for name in ("qa_train.jsonl", "vocab.txt", "pretrain_stage3.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_datasets_validate_and_split_disjoint(self, corpora_dir):
        train = load_dataset(corpora_dir / "qa_train.jsonl")
        heldout = load_dataset(corpora_dir / "qa_heldout.jsonl")
        assert len(train) == 8 and len(heldout) == 4
        assert {i.qid for i in train}.isdisjoint({i.qid for i in heldout})
        tq = {i.question for i in train}
        for inst in heldout:
            assert inst.question not in tq
        for inst in train + heldout:
            pos = [d for d in inst.pool if d.label == "supporting"]
            assert len(pos) == 1
            assert inst.gold_ids == [pos[0].id]

    def test_sentence_style_answers(self, tmp_path):
        generate_corpora(tmp_path / "s", seed=3, n_entities=8, n_captions=4,
                         n_vqa=4, n_train=4, n_heldout=2, vocab_size=400,
                         answer_style="sentence")
        data = load_dataset(tmp_path / "s" / "qa_train.jsonl")
        assert all(len(i.answers[0].split()) >= 4 for i in data)


class TestCli:
    def test_full_command_chain(self, tmp_path):
        out = tmp_path / "work"
        corpora = out / "corpora"
        assert main(["gen-synthetic", "--out", str(corpora), "--seed", "4",
                     "--entities", "8", "--captions", "8", "--vqa", "8",
                     "--train-questions", "6", "--heldout-questions", "2",
                     "--vocab-size", "400"]) == 0

        vocab_path = str(corpora / "vocab.txt")
        backbone = str(out / "backbone.ckpt")
        assert main(["pretrain", "--stage", "1", "--data",
                     str(corpora / "pretrain_stage1.jsonl"), "--vocab", vocab_path,
                     "--out", backbone, "--epochs", "1", "--batch", "8",
                     "--seed", "0"]) == 0
        assert os.path.isfile(backbone)

        stage2 = str(out / "stage2.ckpt")
        trace2 = str(out / "stage2_trace.csv")
        assert main(["pretrain", "--stage", "2", "--data",
                     str(corpora / "pretrain_stage2.jsonl"), "--vocab", vocab_path,
                     "--init", backbone, "--out", stage2, "--trace", trace2,
                     "--epochs", "1", "--batch", "8", "--seed", "0"]) == 0
        with open(trace2) as fh:
            header = fh.readline().strip()
        assert header == "step,lr,loss"

        stage3 = str(out / "stage3.ckpt")
        assert main(["pretrain", "--stage", "3", "--data",
                     str(corpora / "pretrain_stage3.jsonl"), "--vocab", vocab_path,
                     "--init", stage2, "--out", stage3,
                     "--epochs", "1", "--batch", "8", "--seed", "0"]) == 0

        rr = str(out / "rr.ckpt")
        assert main(["finetune-reranker", "--data", str(corpora / "qa_train.jsonl"),
                     "--vocab", vocab_path, "--init", stage3, "--out", rr,
                     "--epochs", "1", "--seed", "0"]) == 0
        qa = str(out / "qa.ckpt")
        assert main(["finetune-qa", "--data", str(corpora / "qa_train.jsonl"),
                     "--vocab", vocab_path, "--init", stage3, "--out", qa,
                     "--epochs", "1", "--seed", "0"]) == 0

        reranked = str(out / "reranked.jsonl")
        assert main(["rerank", "--model", rr, "--vocab", vocab_path,
                     "--input", str(corpora / "qa_heldout.jsonl"),
                     "--output", reranked, "--tau", "0.5", "--top-k", "5"]) == 0
        lines = [json.loads(l) for l in open(reranked)]
        assert len(lines) == 2
        assert all(1 <= len(l["selected"]) <= 5 for l in lines)
        assert all(0.0 <= s <= 1.0 for l in lines for s in l["scores"].values())

        answers_in = str(out / "answer_in.jsonl")
        heldout = load_dataset(corpora / "qa_heldout.jsonl")
        with open(answers_in, "w") as fh:
            first = lines[0]
            inst = heldout[0]
            sel_docs = [d for d in inst.pool if d.id in first["selected"]]
            fh.write(json.dumps({
                "qid": inst.qid,
                "question": inst.question,
                "contexts": [_doc_to_json(d) for d in sel_docs],
            }) + "\n")
        answers_out = str(out / "answers.jsonl")
        assert main(["answer", "--model", qa, "--vocab", vocab_path,
                     "--input", answers_in, "--output", answers_out,
                     "--max-new-tokens", "8"]) == 0
        rec = json.loads(open(answers_out).readline())
        assert "answer" in rec

        results = str(out / "results.jsonl")
        assert main(["eval", "--reranker", rr, "--qa", qa, "--vocab", vocab_path,
                     "--data", str(corpora / "qa_heldout.jsonl"),
                     "--output", results, "--max-new-tokens", "8"]) == 0
        evaluated = [json.loads(l) for l in open(results)]
        assert len(evaluated) == 2
        # rerank and eval share one rerank path: same selection per question
        assert [(l["qid"], l["selected"]) for l in lines] == \
            [(r["qid"], r["selected"]) for r in evaluated]

    def test_answer_contexts_relative_image_paths(self, tmp_path, corpora_dir):
        # image contexts in answer input resolve relative to the input file
        vocab = Vocab.load(corpora_dir / "vocab.txt")
        cfg = model_profile("desk", vocab_size=vocab.size)
        qa_ckpt = tmp_path / "qa.ckpt"
        save_checkpoint(MultimodalTransformer.build(cfg, Rng(0)), qa_ckpt)
        heldout = load_dataset(corpora_dir / "qa_heldout.jsonl")
        img_doc = None
        for inst in heldout:
            for d in inst.pool:
                if d.modality == "image":
                    img_doc = d
                    break
            if img_doc:
                break
        assert img_doc is not None
        rel = os.path.relpath(img_doc.image_path, corpora_dir)
        infile = corpora_dir / "ans_in.jsonl"
        with open(infile, "w") as fh:
            fh.write(json.dumps({
                "qid": "x", "question": "what color is the shape?",
                "contexts": [{"id": "i", "modality": "image", "image": rel,
                              "snippet": img_doc.snippet}],
            }) + "\n")
        outfile = tmp_path / "ans_out.jsonl"
        assert main(["answer", "--model", str(qa_ckpt),
                     "--vocab", str(corpora_dir / "vocab.txt"),
                     "--input", str(infile), "--output", str(outfile),
                     "--max-new-tokens", "4"]) == 0

    def test_answer_cap_at_max_len_exits_one(self, tmp_path, corpora_dir, capsys):
        vocab = Vocab.load(corpora_dir / "vocab.txt")
        cfg = model_profile("desk", vocab_size=vocab.size)
        qa_ckpt = tmp_path / "qa.ckpt"
        save_checkpoint(MultimodalTransformer.build(cfg, Rng(0)), qa_ckpt)
        infile = tmp_path / "ans_in.jsonl"
        infile.write_text(json.dumps({
            "qid": "x", "question": "what is the capital of balor?",
            "contexts": [{"id": "t", "modality": "text", "text": "the capital is venta"}],
        }) + "\n")
        rc = main(["answer", "--model", str(qa_ckpt), "--vocab", str(corpora_dir / "vocab.txt"),
                   "--input", str(infile), "--output", str(tmp_path / "out.jsonl"),
                   "--max-new-tokens", "300"])
        assert rc == 1
        assert f"max_new_tokens 300 must stay below the decoder's max_len {cfg.lm.max_len}" \
            in capsys.readouterr().err

    def test_nan_scores_exit_one(self, tmp_path, corpora_dir, capsys):
        vocab = Vocab.load(corpora_dir / "vocab.txt")
        model = MultimodalTransformer.build(model_profile("desk", vocab_size=vocab.size), Rng(0))
        model.params["cls_head.b2"].data[:] = np.nan
        rr_ckpt = tmp_path / "rr.ckpt"
        save_checkpoint(model, rr_ckpt)
        rc = main(["rerank", "--model", str(rr_ckpt), "--vocab", str(corpora_dir / "vocab.txt"),
                   "--input", str(corpora_dir / "qa_heldout.jsonl"),
                   "--output", str(tmp_path / "o.jsonl")])
        assert rc == 1
        assert "candidate 0 has non-finite score nan" in capsys.readouterr().err

    def test_truncated_checkpoint_exits_one(self, tmp_path, corpora_dir, capsys):
        vocab = Vocab.load(corpora_dir / "vocab.txt")
        ckpt = tmp_path / "rr.ckpt"
        save_checkpoint(MultimodalTransformer.build(model_profile("desk", vocab_size=vocab.size),
                                                    Rng(0)), ckpt)
        ckpt.write_bytes(ckpt.read_bytes()[:10])
        rc = main(["rerank", "--model", str(ckpt), "--vocab", str(corpora_dir / "vocab.txt"),
                   "--input", str(corpora_dir / "qa_heldout.jsonl"),
                   "--output", str(tmp_path / "o.jsonl")])
        assert rc == 1
        assert f"checkpoint {ckpt}: file is 10 bytes" in capsys.readouterr().err

    def test_invalid_input_exits_nonzero(self, tmp_path):
        bad = tmp_path / "nope.jsonl"
        bad.write_text("{broken\n")
        rc = main(["rerank", "--model", str(tmp_path / "missing.ckpt"),
                   "--vocab", str(tmp_path / "missing.txt"),
                   "--input", str(bad), "--output", str(tmp_path / "o.jsonl")])
        assert rc == 1

    def test_env_seed_override(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("FUSIONQA_SEED", "21")
        assert main(["gen-synthetic", "--out", str(a), "--seed", "4",
                     "--entities", "8", "--captions", "4", "--vqa", "4",
                     "--train-questions", "4", "--heldout-questions", "2",
                     "--vocab-size", "400"]) == 0
        monkeypatch.setenv("FUSIONQA_SEED", "22")
        assert main(["gen-synthetic", "--out", str(b), "--seed", "4",
                     "--entities", "8", "--captions", "4", "--vqa", "4",
                     "--train-questions", "4", "--heldout-questions", "2",
                     "--vocab-size", "400"]) == 0
        assert (a / "qa_train.jsonl").read_bytes() != (b / "qa_train.jsonl").read_bytes()
