"""The two-stage pipeline: rerank every candidate, select contexts, generate.

Stage 1 scores each pool document against the question and applies the
relative-threshold + top-k rule; stage 2 feeds the selected documents, in
descending score order, to the generator.
"""

from __future__ import annotations

from dataclasses import dataclass

from fusionqa.config import GenerationConfig, SelectionConfig
from fusionqa.documents import QaInstance
from fusionqa.generator import generate
from fusionqa.images import load_image_ppm
from fusionqa.metrics import metric_em, metric_f1, metric_retr_f1
from fusionqa.reranker import RetrievedSet, score, select_contexts
from fusionqa.tensor import no_grad


def make_image_loader(cache=None):
    """Path-cached PPM loader for Documents."""
    cache = {} if cache is None else cache

    def load(doc):
        if doc.image_path not in cache:
            cache[doc.image_path] = load_image_ppm(doc.image_path)
        return cache[doc.image_path]

    return load


@dataclass
class PipelineResult:
    retrieved: RetrievedSet
    selected_ids: list[str]
    answer: str
    metrics: dict | None


def rerank(instance: QaInstance, model, vocab, sel: SelectionConfig,
           image_loader) -> RetrievedSet:
    """Score every pool document against the question, then select."""
    with no_grad():
        logits = [
            score(model, vocab, instance.question, doc, image_loader=image_loader).item()
            for doc in instance.pool
        ]
    return select_contexts(logits, sel)


def run_pipeline(instance: QaInstance, reranker_model, qa_model,
                 sel: SelectionConfig, gen: GenerationConfig, vocab,
                 image_loader=None) -> PipelineResult:
    """Score, select, generate, and (when gold labels exist) measure."""
    if reranker_model.config.lm.vocab_size != qa_model.config.lm.vocab_size:
        raise ValueError("reranker and qa model vocabularies differ")
    image_loader = image_loader or make_image_loader()
    retrieved = rerank(instance, reranker_model, vocab, sel, image_loader)
    selected_docs = [instance.pool[i] for i in retrieved.selected]
    selected_ids = [d.id for d in selected_docs]
    answer = generate(qa_model, vocab, instance.question, selected_docs, gen,
                      image_loader=image_loader)
    metrics = None
    if instance.answers and instance.gold_ids:
        metrics = {
            "em": metric_em(answer, instance.answers),
            "f1": metric_f1(answer, instance.answers),
            "retr_f1": metric_retr_f1(selected_ids, instance.gold_ids),
        }
    return PipelineResult(retrieved, selected_ids, answer, metrics)


def evaluate_dataset(instances, reranker_model, qa_model, sel, gen, vocab,
                     image_loader=None):
    """Run the pipeline over a dataset; returns (per-instance results,
    mean metrics)."""
    image_loader = image_loader or make_image_loader()
    results = []
    for inst in instances:
        results.append(run_pipeline(inst, reranker_model, qa_model, sel, gen,
                                    vocab, image_loader=image_loader))
    scored = [r.metrics for r in results if r.metrics is not None]
    aggregate = {}
    if scored:
        for key in ("em", "f1", "retr_f1"):
            aggregate[key] = sum(m[key] for m in scored) / len(scored)
    return results, aggregate
