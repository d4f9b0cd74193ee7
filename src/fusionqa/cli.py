"""Command-line surface.

Subcommands: gen-synthetic, pretrain, finetune-reranker, finetune-qa,
rerank, answer, eval. The seed can be overridden globally through the
FUSIONQA_SEED environment variable. Exit code is 0 only when every input
validates.
"""

from __future__ import annotations

import argparse
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
from fusionqa.dataset import doc_from_json, instance_from_json, load_dataset
from fusionqa.generator import generate
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


def _seed(args) -> int:
    env = os.environ.get("FUSIONQA_SEED")
    return int(env) if env is not None else args.seed


def _load_model_and_vocab(model_path, vocab_path):
    model = load_checkpoint(model_path)
    vocab = Vocab.load(vocab_path)
    if vocab.size != model.config.lm.vocab_size:
        raise ValueError(
            f"vocab has {vocab.size} entries, checkpoint expects "
            f"{model.config.lm.vocab_size}"
        )
    return model, vocab


def _cmd_gen_synthetic(args):
    manifest = generate_corpora(
        args.out, seed=_seed(args), n_entities=args.entities,
        n_captions=args.captions, n_vqa=args.vqa,
        n_train=args.train_questions, n_heldout=args.heldout_questions,
        vocab_size=args.vocab_size, answer_style=args.style,
    )
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def _cmd_pretrain(args):
    vocab = Vocab.load(args.vocab)
    if args.init:
        model = load_checkpoint(args.init)
    else:
        config = model_profile(args.profile, vocab_size=vocab.size)
        model = MultimodalTransformer.build(config, Rng(_seed(args)).child("init"))
    stage = desk_stage_config(args.stage) if args.profile == "desk" \
        else pretrain_stage_defaults(args.stage)
    if args.epochs is not None:
        stage.epochs = args.epochs
    if args.batch is not None:
        stage.global_batch = args.batch
    corpus = load_pretrain_corpus(args.data)
    trace = run_pretrain_stage(model, vocab, stage, corpus, Rng(_seed(args)))
    save_checkpoint(model, args.out)
    if args.trace:
        write_trace_csv(trace, args.trace)
    print(f"stage {args.stage}: {len(trace)} steps, "
          f"first loss {trace[0][2]:.4f}, last loss {trace[-1][2]:.4f}")
    return 0


def _cmd_finetune(args, task):
    model, vocab = _load_model_and_vocab(args.init, args.vocab)
    dataset = load_dataset(args.data)
    cfg = desk_finetune_config(task) if args.profile == "desk" else finetune_defaults(task)
    if args.epochs is not None:
        cfg.epochs = args.epochs
    if args.batch is not None:
        cfg.global_batch = args.batch
    if args.lr is not None:
        cfg.lr = args.lr
    loader = make_image_loader()
    if task == "reranker":
        trace = finetune_reranker(model, vocab, dataset, cfg, Rng(_seed(args)),
                                  image_loader=loader)
    else:
        trace = finetune_qa(model, vocab, dataset, cfg, Rng(_seed(args)),
                            image_loader=loader,
                            extra_distractors=args.extra_distractors)
    save_checkpoint(model, args.out)
    if args.trace:
        write_trace_csv(trace, args.trace)
    print(f"finetune-{task}: {len(trace)} steps, "
          f"first loss {trace[0][2]:.4f}, last loss {trace[-1][2]:.4f}")
    return 0


def _cmd_rerank(args):
    model, vocab = _load_model_and_vocab(args.model, args.vocab)
    sel = SelectionConfig(tau=args.tau, k=args.top_k)
    loader = make_image_loader()
    base = os.path.dirname(os.path.abspath(args.input))
    with open(args.input, "r", encoding="utf-8") as fin, \
         open(args.output, "w", encoding="utf-8", newline="\n") as fout:
        for lineno, line in enumerate(fin, 1):
            line = line.strip()
            if not line:
                continue
            try:
                inst = instance_from_json(json.loads(line), base)
                inst.validate()
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"{args.input}:{lineno}: {exc}") from exc
            retrieved = rerank(inst, model, vocab, sel, loader)
            fout.write(json.dumps({
                "qid": inst.qid,
                "scores": {d.id: float(s) for d, s in zip(inst.pool, retrieved.scores)},
                "selected": [inst.pool[i].id for i in retrieved.selected],
            }, sort_keys=True) + "\n")
    return 0


def _cmd_answer(args):
    model, vocab = _load_model_and_vocab(args.model, args.vocab)
    gen = GenerationConfig(max_new_tokens=args.max_new_tokens)
    loader = make_image_loader()
    base = os.path.dirname(os.path.abspath(args.input))
    with open(args.input, "r", encoding="utf-8") as fin, \
         open(args.output, "w", encoding="utf-8", newline="\n") as fout:
        for lineno, line in enumerate(fin, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                contexts = [doc_from_json(d, base) for d in rec["contexts"]]
                for d in contexts:
                    d.validate()
                question = rec["question"]
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"{args.input}:{lineno}: {exc}") from exc
            answer = generate(model, vocab, question, contexts, gen, image_loader=loader)
            fout.write(json.dumps(
                {"qid": rec.get("qid"), "answer": answer}, sort_keys=True) + "\n")
    return 0


def _cmd_eval(args):
    reranker_model, vocab = _load_model_and_vocab(args.reranker, args.vocab)
    qa_model = load_checkpoint(args.qa)
    dataset = load_dataset(args.data)
    sel = SelectionConfig(tau=args.tau, k=args.top_k)
    gen = GenerationConfig(max_new_tokens=args.max_new_tokens)
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
    p.add_argument("--trace", help="write the (step, lr, loss) CSV here")
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
