import json
import os

import numpy as np
import pytest

from fusionqa import generator, vision
from fusionqa.checkpoint import save_checkpoint
from fusionqa.cli import main
from fusionqa.config import GenerationConfig, SelectionConfig, model_profile
from fusionqa.dataset import _doc_to_json, load_dataset
from fusionqa.documents import Document, QaInstance
from fusionqa.images import save_image_ppm
from fusionqa.model import MultimodalTransformer
from fusionqa.pipeline import evaluate_dataset, make_image_loader, run_pipeline
from fusionqa.synthetic import SceneSpec, generate_corpora, render_scene
from fusionqa.tensor import Rng
from fusionqa.tokenizer import Vocab
from fusionqa.training import clone_model

from conftest import count_encode_image, encode_every_visit, make_tiny_config


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

    def test_memo_keeps_greedy_ids_and_scores(self, corpora_dir, desk_models, monkeypatch):
        vocab, rr, qa = desk_models
        instances = load_dataset(corpora_dir / "qa_heldout.jsonl")
        assert any(d.modality == "image" for inst in instances for d in inst.pool)
        greedy = []
        real_generate_ids = generator.generate_ids

        def recording(model, enc, cfg):
            greedy.append(real_generate_ids(model, enc, cfg))
            return greedy[-1]

        monkeypatch.setattr(generator, "generate_ids", recording)

        def answers():
            # two passes over one loader: the second is served from the memo
            loader = make_image_loader()
            results = [run_pipeline(inst, rr, qa, SelectionConfig(),
                                    GenerationConfig(max_new_tokens=8), vocab,
                                    image_loader=loader)
                       for inst in instances + instances]
            return greedy[-len(results):], [r.retrieved.scores.tobytes() for r in results]

        with_memo = answers()
        monkeypatch.setattr(vision, "image_rows", encode_every_visit)
        assert answers() == with_memo

    def test_shared_image_encoded_once_across_models(self, tiny_vocab, tmp_path, monkeypatch):
        path = tmp_path / "scene.ppm"
        save_image_ppm(render_scene(SceneSpec("red", "square", "top left")), path)
        rr = MultimodalTransformer.build(make_tiny_config(tiny_vocab.size, image_size=32), Rng(4))
        qa = clone_model(rr)  # another object with bit-identical vision weights
        doc = Document(id="photo", modality="image", image_path=str(path), label="supporting")
        questions = ["what color is the shape in the photo of rimek?",
                     "describe the image"]
        encoded = count_encode_image(monkeypatch)
        loader = make_image_loader()
        for i, question in enumerate(questions):
            inst = QaInstance(qid=f"q{i}", question=question, pool=[doc],
                              answers=["red"], gold_ids=["photo"])
            res = run_pipeline(inst, rr, qa, SelectionConfig(),
                               GenerationConfig(max_new_tokens=2), tiny_vocab,
                               image_loader=loader)
            assert res.selected_ids == ["photo"]
        # reranked and answered twice, encoded once
        assert len(encoded) == 1


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


@pytest.fixture(scope="module")
def qa_ckpt(tmp_path_factory, corpora_dir):
    """A random-init desk checkpoint that matches ``corpora_dir``'s vocab."""
    vocab = Vocab.load(corpora_dir / "vocab.txt")
    path = tmp_path_factory.mktemp("qa") / "qa.ckpt"
    save_checkpoint(MultimodalTransformer.build(model_profile("desk", vocab_size=vocab.size),
                                                Rng(0)), path)
    return path


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
        assert header == "step,lr,loss,grad_norm"

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

    def test_answer_cap_at_max_len_exits_one(self, tmp_path, corpora_dir, qa_ckpt, capsys):
        max_len = model_profile("desk").lm.max_len
        infile = tmp_path / "ans_in.jsonl"
        infile.write_text(json.dumps({
            "qid": "x", "question": "what is the capital of balor?",
            "contexts": [{"id": "t", "modality": "text", "text": "the capital is venta"}],
        }) + "\n")
        outfile = tmp_path / "out.jsonl"
        outfile.write_bytes(b'{"answer": "kept", "qid": "x"}\n')
        rc = main(["answer", "--model", str(qa_ckpt), "--vocab", str(corpora_dir / "vocab.txt"),
                   "--input", str(infile), "--output", str(outfile),
                   "--max-new-tokens", "300"])
        assert rc == 1
        assert f"max_new_tokens 300 must stay below the decoder's max_len {max_len}" \
            in capsys.readouterr().err
        # checked against the checkpoint before the output is opened
        assert outfile.read_bytes() == b'{"answer": "kept", "qid": "x"}\n'

    def test_eval_cap_at_max_len_exits_one_before_reading_data(self, tmp_path, corpora_dir,
                                                                qa_ckpt, capsys):
        max_len = model_profile("desk").lm.max_len
        rc = main(["eval", "--reranker", str(qa_ckpt), "--qa", str(qa_ckpt),
                   "--vocab", str(corpora_dir / "vocab.txt"),
                   "--data", str(tmp_path / "missing.jsonl"), "--max-new-tokens", "300"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"max_new_tokens 300 must stay below the decoder's max_len {max_len}" in err
        assert "missing.jsonl" not in err

    @pytest.mark.parametrize("field,value", [("question", 5), ("qid", 7)])
    def test_answer_non_string_field_exits_one(self, tmp_path, corpora_dir, capsys,
                                               field, value):
        vocab = Vocab.load(corpora_dir / "vocab.txt")
        qa_ckpt = tmp_path / "qa.ckpt"
        save_checkpoint(MultimodalTransformer.build(model_profile("desk", vocab_size=vocab.size),
                                                    Rng(0)), qa_ckpt)
        rec = {"qid": "x", "question": "what is the capital of balor?",
               "contexts": [{"id": "t", "modality": "text", "text": "the capital is venta"}]}
        rec[field] = value
        infile = tmp_path / "ans_in.jsonl"
        infile.write_text(json.dumps(rec) + "\n")
        outfile = tmp_path / "out.jsonl"
        rc = main(["answer", "--model", str(qa_ckpt), "--vocab", str(corpora_dir / "vocab.txt"),
                   "--input", str(infile), "--output", str(outfile), "--max-new-tokens", "2"])
        assert rc == 1
        assert f"error: {infile}:1: field {field!r} must be a string, got int" \
            in capsys.readouterr().err
        assert not outfile.exists()

    @pytest.mark.parametrize("context", ["abc", ["x"]], ids=["string", "list"])
    def test_answer_non_object_context_exits_one(self, tmp_path, corpora_dir, qa_ckpt,
                                                 capsys, context):
        infile = tmp_path / "ans_in.jsonl"
        infile.write_text(json.dumps({"qid": "x", "question": "what is the capital of balor?",
                                      "contexts": [context]}) + "\n")
        outfile = tmp_path / "out.jsonl"
        rc = main(["answer", "--model", str(qa_ckpt), "--vocab", str(corpora_dir / "vocab.txt"),
                   "--input", str(infile), "--output", str(outfile), "--max-new-tokens", "2"])
        assert rc == 1
        assert (f"error: {infile}:1: document record must be a JSON object, "
                f"got {type(context).__name__}") in capsys.readouterr().err
        assert not outfile.exists()

    def test_answer_failing_on_line_two_keeps_earlier_output(self, tmp_path, corpora_dir,
                                                             qa_ckpt, capsys):
        # line 1 answers fine; every answer is made before the output opens
        good = {"qid": "a", "question": "what is the capital of balor?",
                "contexts": [{"id": "t", "modality": "text", "text": "the capital is venta"}]}
        infile = tmp_path / "ans_in.jsonl"
        infile.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, question=5)) + "\n")
        outfile = tmp_path / "out.jsonl"
        outfile.write_bytes(b'{"earlier": "run"}\n')
        rc = main(["answer", "--model", str(qa_ckpt), "--vocab", str(corpora_dir / "vocab.txt"),
                   "--input", str(infile), "--output", str(outfile), "--max-new-tokens", "2"])
        assert rc == 1
        assert f"error: {infile}:2: field 'question' must be a string, got int" \
            in capsys.readouterr().err
        assert outfile.read_bytes() == b'{"earlier": "run"}\n'

    @pytest.mark.parametrize("edit,line_error", [
        (lambda lines: lines[:7] + [b""] + lines[7:], "line 8: empty token"),
        (lambda lines: lines[:7] + [lines[6]] + lines[7:], "line 8: token"),
        (lambda lines: lines[:7] + [b"caf\xe9"] + lines[7:], "line 8: not UTF-8"),
    ], ids=["blank", "repeat", "latin1"])
    def test_answer_bad_vocab_exits_one(self, tmp_path, corpora_dir, qa_ckpt, capsys,
                                        edit, line_error):
        vocab = tmp_path / "vocab.txt"
        vocab.write_bytes(b"\n".join(edit((corpora_dir / "vocab.txt").read_bytes().split(b"\n"))))
        infile = tmp_path / "ans_in.jsonl"
        infile.write_text(json.dumps({"qid": "x", "question": "q", "contexts": []}) + "\n")
        rc = main(["answer", "--model", str(qa_ckpt), "--vocab", str(vocab),
                   "--input", str(infile), "--output", str(tmp_path / "out.jsonl")])
        assert rc == 1
        assert f"error: vocab file {vocab}: {line_error}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,data,extra,message", [
        ("pretrain", "pretrain_stage1.jsonl", ["--epochs", "0"],
         "stage 1 epochs must be >= 1, got 0"),
        ("pretrain", "pretrain_stage1.jsonl", ["--batch", "0"],
         "stage 1 global_batch must be >= 1, got 0"),
        ("pretrain", None, [], "stage 1 pretraining: no training items"),
        ("finetune-reranker", "qa_train.jsonl", ["--epochs", "0"],
         "finetune epochs must be >= 1, got 0"),
        ("finetune-reranker", "qa_train.jsonl", ["--lr", "nan"],
         "finetune lr must be a finite number > 0, got nan"),
        ("finetune-reranker", None, [], "reranker fine-tune: no training items"),
        ("finetune-qa", "qa_train.jsonl", ["--batch", "0"],
         "finetune global_batch must be >= 1, got 0"),
        ("finetune-qa", "qa_train.jsonl", ["--lr", "-1"],
         "finetune lr must be a finite number > 0, got -1.0"),
        ("finetune-qa", None, [], "QA fine-tune: no training items"),
    ], ids=["pretrain-epochs", "pretrain-batch", "pretrain-empty", "reranker-epochs",
            "reranker-lr-nan", "reranker-empty", "qa-batch", "qa-lr-negative", "qa-empty"])
    def test_nothing_to_train_exits_one(self, tmp_path, corpora_dir, qa_ckpt, capsys,
                                        command, data, extra, message):
        if data is None:
            path = tmp_path / "empty.jsonl"
            path.write_text("")
        else:
            path = corpora_dir / data
        out = tmp_path / "out.ckpt"
        argv = [command, "--data", str(path), "--vocab", str(corpora_dir / "vocab.txt"),
                "--out", str(out)]
        argv += ["--stage", "1"] if command == "pretrain" else ["--init", str(qa_ckpt)]
        assert main(argv + extra) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,extra,message", [
        ("rerank", ["--tau", "2"], "tau must lie in (0, 1], got 2.0"),
        ("rerank", ["--top-k", "0"], "k must be >= 1, got 0"),
        ("answer", ["--max-new-tokens", "0"], "max_new_tokens must be >= 1"),
        ("eval", ["--tau", "0"], "tau must lie in (0, 1], got 0.0"),
        ("eval", ["--max-new-tokens", "0"], "max_new_tokens must be >= 1"),
        ("finetune-qa", ["--extra-distractors", "-2"], "--extra-distractors must be >= 0, got -2"),
    ], ids=["rerank-tau", "rerank-k", "answer-max-new-tokens", "eval-tau",
            "eval-max-new-tokens", "finetune-qa-extra-distractors"])
    def test_bad_limit_reported_before_any_file_is_read(self, tmp_path, capsys, command,
                                                        extra, message):
        # every file named is missing, so a limit reported at all is checked first
        missing = str(tmp_path / "missing")
        out = tmp_path / "out"
        files = {"rerank": ["--model", missing, "--input", missing, "--output", str(out)],
                 "answer": ["--model", missing, "--input", missing, "--output", str(out)],
                 "eval": ["--reranker", missing, "--qa", missing, "--data", missing,
                          "--output", str(out)],
                 "finetune-qa": ["--init", missing, "--data", missing, "--out", str(out)]}
        assert main([command, "--vocab", missing] + files[command] + extra) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag", [
        ("pretrain", "--out"), ("pretrain", "--trace"), ("finetune-reranker", "--out"),
        ("finetune-qa", "--trace"), ("rerank", "--output"), ("answer", "--output"),
        ("eval", "--output"),
    ])
    @pytest.mark.parametrize("where", ["missing_dir", "is_dir"])
    def test_unwritable_output_reported_before_any_work(self, tmp_path, corpora_dir, qa_ckpt,
                                                        capsys, monkeypatch, command, flag,
                                                        where):
        # the inputs are valid, so only the output check can stop the command
        # before it reads a file or trains
        import fusionqa.cli as cli

        ran = []
        for name in ("load_checkpoint", "load_pretrain_corpus", "load_dataset", "read_jsonl",
                     "run_pretrain_stage", "finetune_reranker", "finetune_qa", "rerank",
                     "generate", "evaluate_dataset"):
            monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: ran.append(_name))
        monkeypatch.setattr(cli.Vocab, "load", lambda *a, **k: ran.append("Vocab.load"))
        bad = tmp_path / "nodir" / "x" if where == "missing_dir" else tmp_path / "a_dir"
        if where == "is_dir":
            bad.mkdir()
        outs = {"--out": tmp_path / "m.ckpt", "--trace": tmp_path / "t.csv",
                "--output": tmp_path / "o.jsonl"}
        ckpt, data = str(qa_ckpt), str(corpora_dir / "qa_heldout.jsonl")
        argv = {
            "pretrain": ["--stage", "2", "--data", str(corpora_dir / "pretrain_stage2.jsonl")],
            "finetune-reranker": ["--init", ckpt, "--data", data],
            "finetune-qa": ["--init", ckpt, "--data", data],
            "rerank": ["--model", ckpt, "--input", data],
            "answer": ["--model", ckpt, "--input", data],
            "eval": ["--reranker", ckpt, "--qa", ckpt, "--data", data],
        }[command]
        for opt in (["--output"] if command in ("rerank", "answer", "eval")
                    else ["--out", "--trace"]):
            argv += [opt, str(bad if opt == flag else outs[opt])]
        vocab = str(corpora_dir / "vocab.txt")
        assert main([command, "--vocab", vocab] + argv) == 1
        err = capsys.readouterr().err
        assert f"error: output {bad}: not a file in an existing directory" in err
        assert ran == []
        assert not any(out.exists() for out in outs.values())
        assert where == "is_dir" or not bad.parent.exists()

    def test_gen_synthetic_question_count_checked_before_writing(self, tmp_path, capsys):
        out = tmp_path / "corpora"
        assert main(["gen-synthetic", "--out", str(out), "--entities", "20",
                     "--train-questions", "1000", "--heldout-questions", "4"]) == 1
        assert ("error: asked for 1004 questions but the world only has 100 facts"
                in capsys.readouterr().err)
        assert not out.exists()

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

    @pytest.mark.parametrize("record", [
        "[1, 2]",
        '{"image": 5, "prompt": "p", "target": "t", "kind": "caption"}',
    ], ids=["array", "int_image"])
    def test_bad_pretraining_record_exits_one(self, tmp_path, corpora_dir, capsys, record):
        data = tmp_path / "bad.jsonl"
        data.write_text(record + "\n")
        rc = main(["pretrain", "--stage", "1", "--data", str(data),
                   "--vocab", str(corpora_dir / "vocab.txt"), "--out", str(tmp_path / "m.ckpt")])
        assert rc == 1
        assert f"{data}:1: bad pretraining record" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_invalid_input_exits_nonzero(self, tmp_path):
        bad = tmp_path / "nope.jsonl"
        bad.write_text("{broken\n")
        rc = main(["rerank", "--model", str(tmp_path / "missing.ckpt"),
                   "--vocab", str(tmp_path / "missing.txt"),
                   "--input", str(bad), "--output", str(tmp_path / "o.jsonl")])
        assert rc == 1

    def test_rerank_non_string_question_exits_one(self, tmp_path, corpora_dir, capsys):
        vocab = Vocab.load(corpora_dir / "vocab.txt")
        ckpt = tmp_path / "rr.ckpt"
        save_checkpoint(MultimodalTransformer.build(model_profile("desk", vocab_size=vocab.size),
                                                    Rng(0)), ckpt)
        rec = json.loads((corpora_dir / "qa_heldout.jsonl").read_text().splitlines()[0])
        rec["question"] = 5
        data = tmp_path / "bad.jsonl"
        data.write_text(json.dumps(rec) + "\n")
        rc = main(["rerank", "--model", str(ckpt), "--vocab", str(corpora_dir / "vocab.txt"),
                   "--input", str(data), "--output", str(tmp_path / "o.jsonl")])
        assert rc == 1
        assert f"error: {data}:1: field 'question' must be a string, got int" \
            in capsys.readouterr().err

    def test_rerank_bad_image_in_question_two_keeps_earlier_output(self, tmp_path, corpora_dir,
                                                                   qa_ckpt, capsys):
        # the dataset loads (the image file exists) and question 1 scores
        # fine; question 2's truncated PPM fails before the output opens
        recs = [json.loads(line)
                for line in (corpora_dir / "qa_heldout.jsonl").read_text().splitlines()[:2]]
        for rec in recs:
            for d in rec["pool"]:
                if "image" in d:
                    d["image"] = str(corpora_dir / d["image"])
        doc = next(d for d in recs[1]["pool"] if "image" in d)
        bad = tmp_path / "truncated.ppm"
        bad.write_bytes(open(doc["image"], "rb").read()[:100])
        doc["image"] = str(bad)
        data = tmp_path / "two.jsonl"
        data.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
        outfile = tmp_path / "o.jsonl"
        outfile.write_bytes(b'{"earlier": "run"}\n')
        rc = main(["rerank", "--model", str(qa_ckpt), "--vocab", str(corpora_dir / "vocab.txt"),
                   "--input", str(data), "--output", str(outfile)])
        assert rc == 1
        assert f"ppm {bad}: truncated payload" in capsys.readouterr().err
        assert outfile.read_bytes() == b'{"earlier": "run"}\n'
