"""Command-line surface.

Subcommands: gen-synthetic, pretrain, finetune-reranker, finetune-qa,
rerank, answer, eval. Exit code is 0 only when every input validates.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from fusionqa.checkpoint import load_checkpoint, save_checkpoint
from fusionqa.config import (
    GenerationConfig,
    SelectionConfig,
    desk_finetune_config,
    desk_stage_config,
    finetune_defaults,
    model_profile,
    pretrain_stage_defaults,
)
from fusionqa.dataset import _string, doc_from_json, load_dataset, read_jsonl
from fusionqa.generator import check_max_new_tokens, generate
from fusionqa.model import MultimodalTransformer
from fusionqa.pipeline import evaluate_dataset, make_image_loader, rerank
from fusionqa.synthetic import generate_corpora, load_pretrain_corpus
from fusionqa.tensor import Rng
from fusionqa.tokenizer import Vocab
from fusionqa.training import (
    finetune_qa,
    finetune_reranker,
    run_pretrain_stage,
    write_trace_csv,
)


def _load_model_and_vocab(model_path, vocab_path):
    model = load_checkpoint(model_path)
    vocab = Vocab.load(vocab_path)
    if vocab.size != model.config.lm.vocab_size:
        raise ValueError(
            f"vocab has {vocab.size} entries, checkpoint expects "
            f"{model.config.lm.vocab_size}"
        )
    return model, vocab


def _check_outputs(*paths):
    """Before any work: no given output may be a directory or lie in a missing one."""
    for path in filter(None, paths):
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"output {path}: not a file in an existing directory")


def _cmd_gen_synthetic(args):
    manifest = generate_corpora(
        args.out, seed=args.seed, n_entities=args.entities,
        n_captions=args.captions, n_vqa=args.vqa,
        n_train=args.train_questions, n_heldout=args.heldout_questions,
        vocab_size=args.vocab_size, answer_style=args.style,
    )
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def _with_overrides(cfg, **given):
    """``cfg`` with the given command-line values, checked as its own are."""
    return dataclasses.replace(cfg, **{k: v for k, v in given.items() if v is not None})


def _save_trained(args, model, trace, label):
    save_checkpoint(model, args.out)
    if args.trace:
        write_trace_csv(trace, args.trace)
    print(f"{label}: {len(trace)} steps, "
          f"first loss {trace[0][2]:.4f}, last loss {trace[-1][2]:.4f}")
    return 0


def _cmd_pretrain(args):
    stage = desk_stage_config(args.stage) if args.profile == "desk" \
        else pretrain_stage_defaults(args.stage)
    stage = _with_overrides(stage, epochs=args.epochs, global_batch=args.batch)
    _check_outputs(args.out, args.trace)
    vocab = Vocab.load(args.vocab)
    corpus = load_pretrain_corpus(args.data)
    if args.init:
        model = load_checkpoint(args.init)
    else:
        config = model_profile(args.profile, vocab_size=vocab.size)
        model = MultimodalTransformer.build(config, Rng(args.seed).child("init"))
    trace = run_pretrain_stage(model, vocab, stage, corpus, Rng(args.seed))
    return _save_trained(args, model, trace, f"stage {args.stage}")


def _cmd_finetune(args, task):
    cfg = desk_finetune_config(task) if args.profile == "desk" else finetune_defaults(task)
    cfg = _with_overrides(cfg, epochs=args.epochs, global_batch=args.batch, lr=args.lr)
    if task == "qa" and args.extra_distractors < 0:
        raise ValueError(f"--extra-distractors must be >= 0, got {args.extra_distractors}")
    _check_outputs(args.out, args.trace)
    model, vocab = _load_model_and_vocab(args.init, args.vocab)
    dataset = load_dataset(args.data)
    loader = make_image_loader()
    if task == "reranker":
        trace = finetune_reranker(model, vocab, dataset, cfg, Rng(args.seed),
                                  image_loader=loader)
    else:
        trace = finetune_qa(model, vocab, dataset, cfg, Rng(args.seed),
                            image_loader=loader,
                            extra_distractors=args.extra_distractors)
    return _save_trained(args, model, trace, f"finetune-{task}")


def _cmd_rerank(args):
    sel = SelectionConfig(tau=args.tau, k=args.top_k)
    _check_outputs(args.output)
    model, vocab = _load_model_and_vocab(args.model, args.vocab)
    dataset = load_dataset(args.input)
    loader = make_image_loader()
    picks = [(inst, rerank(inst, model, vocab, sel, loader)) for inst in dataset]
    with open(args.output, "w", encoding="utf-8", newline="\n") as fout:
        for inst, retrieved in picks:
            fout.write(json.dumps({
                "qid": inst.qid,
                "scores": {d.id: float(s) for d, s in zip(inst.pool, retrieved.scores)},
                "selected": [inst.pool[i].id for i in retrieved.selected],
            }, sort_keys=True) + "\n")
    return 0


def _cmd_answer(args):
    gen = GenerationConfig(max_new_tokens=args.max_new_tokens)
    _check_outputs(args.output)
    model, vocab = _load_model_and_vocab(args.model, args.vocab)
    check_max_new_tokens(model, gen)  # the bound is the checkpoint's: before any output
    loader = make_image_loader()
    base = os.path.dirname(os.path.abspath(args.input))

    def parse(rec):
        question = _string(rec, "question")  # a non-object record fails here
        qid = _string(rec, "qid", required=False)
        contexts = [doc_from_json(d, base) for d in rec["contexts"]]
        for d in contexts:
            d.validate()
        return qid, question, contexts

    answers = [(qid, generate(model, vocab, question, contexts, gen, image_loader=loader))
               for qid, question, contexts in read_jsonl(args.input, parse)]
    with open(args.output, "w", encoding="utf-8", newline="\n") as fout:
        for qid, answer in answers:
            fout.write(json.dumps({"qid": qid, "answer": answer}, sort_keys=True) + "\n")
    return 0


def _cmd_eval(args):
    sel = SelectionConfig(tau=args.tau, k=args.top_k)
    gen = GenerationConfig(max_new_tokens=args.max_new_tokens)
    _check_outputs(args.output)
    reranker_model, vocab = _load_model_and_vocab(args.reranker, args.vocab)
    qa_model = load_checkpoint(args.qa)
    check_max_new_tokens(qa_model, gen)
    dataset = load_dataset(args.data)
    results, aggregate = evaluate_dataset(dataset, reranker_model, qa_model,
                                          sel, gen, vocab)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            for inst, res in zip(dataset, results):
                fh.write(json.dumps({
                    "qid": inst.qid,
                    "answer": res.answer,
                    "selected": res.selected_ids,
                    "metrics": res.metrics,
                }, sort_keys=True) + "\n")
    print(json.dumps(aggregate, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionqa",
        description="Multimodal retrieve-then-generate question answering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="emit the procedural corpora")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--entities", type=int, default=100)
    p.add_argument("--captions", type=int, default=500)
    p.add_argument("--vqa", type=int, default=500)
    p.add_argument("--train-questions", type=int, default=300)
    p.add_argument("--heldout-questions", type=int, default=100)
    p.add_argument("--vocab-size", type=int, default=600)
    p.add_argument("--style", choices=("short", "sentence"), default="short")
    p.set_defaults(fn=_cmd_gen_synthetic)

    p = sub.add_parser("pretrain", help="run one pretraining stage")
    p.add_argument("--stage", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--data", required=True, help="pretraining JSONL")
    p.add_argument("--vocab", required=True)
    p.add_argument("--init", help="checkpoint to continue from (else fresh init)")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="write the (step, lr, loss, grad_norm) CSV here")
    p.add_argument("--profile", choices=("desk", "base", "large"), default="desk")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_pretrain)

    for task in ("reranker", "qa"):
        p = sub.add_parser(f"finetune-{task}", help=f"fine-tune the {task} head")
        p.add_argument("--data", required=True)
        p.add_argument("--vocab", required=True)
        p.add_argument("--init", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--trace")
        p.add_argument("--profile", choices=("desk", "published"), default="desk")
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--seed", type=int, default=0)
        if task == "qa":
            p.add_argument("--extra-distractors", type=int, default=2)
        p.set_defaults(fn=lambda a, t=task: _cmd_finetune(a, t))

    p = sub.add_parser("rerank", help="score and select candidate documents")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True, help="JSONL of questions + candidates")
    p.add_argument("--output", required=True)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--top-k", type=int, default=5)
    p.set_defaults(fn=_cmd_rerank)

    p = sub.add_parser("answer", help="generate answers from given contexts")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True, help="JSONL of question + contexts")
    p.add_argument("--output", required=True)
    p.add_argument("--max-new-tokens", type=int, default=64)
    p.set_defaults(fn=_cmd_answer)

    p = sub.add_parser("eval", help="run the two-stage pipeline over a dataset")
    p.add_argument("--reranker", required=True)
    p.add_argument("--qa", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--output")
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--top-k", type=int, default=5)
    p.add_argument("--max-new-tokens", type=int, default=64)
    p.set_defaults(fn=_cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
