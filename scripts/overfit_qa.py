"""Memorization sanity check: fine-tune the generator on a handful of QA
pairs with gold contexts and verify it reproduces every training answer
under greedy decoding.

    python scripts/overfit_qa.py --pairs 32 --epochs 5 --seed 0
"""

import argparse
import sys
import tempfile

from fusionqa.config import FinetuneConfig, GenerationConfig, model_profile
from fusionqa.dataset import load_dataset
from fusionqa.generator import generate
from fusionqa.metrics import metric_em
from fusionqa.model import MultimodalTransformer
from fusionqa.pipeline import make_image_loader
from fusionqa.synthetic import generate_corpora
from fusionqa.tensor import Rng
from fusionqa.tokenizer import Vocab
from fusionqa.training import finetune_qa


def run_overfit(pairs=32, epochs=5, seed=0, outdir=None, lr=2e-3, batch=2):
    outdir = outdir or tempfile.mkdtemp(prefix="fusionqa-overfit-")
    generate_corpora(outdir, seed=seed, n_entities=40, n_captions=8, n_vqa=8,
                     n_train=pairs, n_heldout=4, vocab_size=1400)
    vocab = Vocab.load(f"{outdir}/vocab.txt")
    data = load_dataset(f"{outdir}/qa_train.jsonl")
    loader = make_image_loader()

    model = MultimodalTransformer.build(
        model_profile("desk", vocab_size=vocab.size), Rng(seed).child("init"))
    cfg = FinetuneConfig("qa", batch, epochs, lr)
    trace = finetune_qa(model, vocab, data, cfg, Rng(seed).child("ft"),
                        image_loader=loader, extra_distractors=0)

    gen = GenerationConfig(max_new_tokens=16)
    hits = 0
    for inst in data:
        gold_docs = [d for d in inst.pool if d.id in set(inst.gold_ids)]
        answer = generate(model, vocab, inst.question, gold_docs, gen, image_loader=loader)
        hits += metric_em(answer, inst.answers)
    return hits, len(data), trace


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=32)
    ap.add_argument("--epochs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--lr", type=float, default=2e-3)
    ap.add_argument("--batch", type=int, default=2)
    args = ap.parse_args(argv)
    hits, total, trace = run_overfit(args.pairs, args.epochs, args.seed,
                                     lr=args.lr, batch=args.batch)
    print(f"loss {trace[0][2]:.3f} -> {trace[-1][2]:.4f}; "
          f"exact match {hits}/{total}")
    return 0 if hits == total else 1


if __name__ == "__main__":
    sys.exit(main())
