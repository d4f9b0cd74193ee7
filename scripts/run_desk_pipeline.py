"""End-to-end desk-scale experiment: generate corpora, pretrain the three
stages, fine-tune both heads, evaluate the two-stage pipeline on the
held-out split.

    python scripts/run_desk_pipeline.py --workdir /tmp/fusionqa-run --seed 0

Every artifact (corpora, checkpoints, loss traces, metrics) lands in the
workdir, and every one but ``timings.json`` is a pure function of the seed.
``timings.json`` records the wall time of writing the corpora and the
vocabulary (``corpora``), and, for each of the five training phases and the
eval, its wall time, optimizer steps (questions, for the eval), examples and
examples per second.
"""

import argparse
import json
import os
import sys
import time

from fusionqa.checkpoint import load_checkpoint, save_checkpoint
from fusionqa.config import (
    GenerationConfig,
    SelectionConfig,
    desk_finetune_config,
    desk_stage_config,
    model_profile,
)
from fusionqa.dataset import load_dataset
from fusionqa.model import MultimodalTransformer
from fusionqa.pipeline import evaluate_dataset, make_image_loader
from fusionqa.synthetic import generate_corpora, load_pretrain_corpus
from fusionqa.tensor import Rng
from fusionqa.tokenizer import Vocab
from fusionqa.training import (
    clone_model,
    finetune_qa,
    finetune_reranker,
    run_pretrain_stage,
    write_trace_csv,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--entities", type=int, default=150)
    ap.add_argument("--captions", type=int, default=500)
    ap.add_argument("--vqa", type=int, default=500)
    ap.add_argument("--train-questions", type=int, default=450)
    ap.add_argument("--heldout-questions", type=int, default=100)
    args = ap.parse_args(argv)

    t0 = time.time()
    work = args.workdir
    corpora = os.path.join(work, "corpora")
    os.makedirs(work, exist_ok=True)

    def log(msg):
        print(f"[{time.time() - t0:7.1f}s] {msg}", flush=True)

    timings = {}

    def record(phase, start, steps, examples):
        wall = time.perf_counter() - start
        timings[phase] = {"wall_s": wall, "steps": steps, "examples": examples,
                          "examples_per_s": examples / wall}

    start = time.perf_counter()
    generate_corpora(corpora, seed=args.seed, n_entities=args.entities,
                     n_captions=args.captions, n_vqa=args.vqa,
                     n_train=args.train_questions,
                     n_heldout=args.heldout_questions, vocab_size=1400)
    timings["corpora"] = {"wall_s": time.perf_counter() - start}
    vocab = Vocab.load(os.path.join(corpora, "vocab.txt"))
    log(f"corpora ready (vocab {vocab.size})")

    rng = Rng(args.seed)
    model = MultimodalTransformer.build(
        model_profile("desk", vocab_size=vocab.size), rng.child("init"))
    for stage_id in (1, 2, 3):
        stage = desk_stage_config(stage_id)
        corpus = load_pretrain_corpus(
            os.path.join(corpora, f"pretrain_stage{stage_id}.jsonl"))
        start = time.perf_counter()
        trace = run_pretrain_stage(model, vocab, stage, corpus,
                                   rng.child(f"stage{stage_id}"))
        record(f"stage{stage_id}", start, len(trace), stage.epochs * len(corpus))
        write_trace_csv(trace, os.path.join(work, f"stage{stage_id}_trace.csv"))
        log(f"stage {stage_id}: {len(trace)} steps, "
            f"loss {trace[0][2]:.3f} -> {trace[-1][2]:.3f}")
    save_checkpoint(model, os.path.join(work, "backbone.ckpt"))

    train = load_dataset(os.path.join(corpora, "qa_train.jsonl"))
    heldout = load_dataset(os.path.join(corpora, "qa_heldout.jsonl"))
    loader = make_image_loader()

    reranker_model = clone_model(model)
    cfg = desk_finetune_config("reranker")
    start = time.perf_counter()
    trace = finetune_reranker(reranker_model, vocab, train, cfg,
                              rng.child("ft_reranker"), image_loader=loader)
    record("reranker", start, len(trace), cfg.epochs * len(train))
    write_trace_csv(trace, os.path.join(work, "reranker_trace.csv"))
    save_checkpoint(reranker_model, os.path.join(work, "reranker.ckpt"))
    log(f"reranker fine-tuned ({len(trace)} steps, last loss {trace[-1][2]:.4f})")

    qa_model = clone_model(model)
    cfg = desk_finetune_config("qa")
    start = time.perf_counter()
    trace = finetune_qa(qa_model, vocab, train, cfg, rng.child("ft_qa"),
                        image_loader=loader, extra_distractors=2)
    record("qa", start, len(trace), cfg.epochs * len(train))
    write_trace_csv(trace, os.path.join(work, "qa_trace.csv"))
    save_checkpoint(qa_model, os.path.join(work, "qa.ckpt"))
    log(f"qa model fine-tuned ({len(trace)} steps, last loss {trace[-1][2]:.4f})")

    start = time.perf_counter()
    _, aggregate = evaluate_dataset(heldout, reranker_model, qa_model,
                                    SelectionConfig(), GenerationConfig(),
                                    vocab, image_loader=loader)
    record("eval", start, len(heldout), len(heldout))
    log(f"held-out metrics: {aggregate}")
    with open(os.path.join(work, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(aggregate, fh, indent=2, sort_keys=True)
    with open(os.path.join(work, "timings.json"), "w", encoding="utf-8") as fh:
        json.dump(timings, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
