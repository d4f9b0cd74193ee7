"""Dataclass configs for model construction, selection, generation, training.

Named profiles: ``base`` and ``large`` mirror the published component table
(hidden 768, 12 layers, 12 heads; hidden 1024, 24 layers, 16 heads) and are
constructible for shape checks; ``desk`` is the small configuration
everything in this repo actually trains.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field


@dataclass
class VisionConfig:
    """The vision encoder's image geometry; its width, depth, head count
    and dropout rate are the language model's ``lm`` values."""

    patch_size: int = 8
    image_size: int = 32

    def __post_init__(self):
        if self.image_size % self.patch_size:
            raise ValueError(
                f"vision image_size {self.image_size} is not a multiple of "
                f"patch_size {self.patch_size}"
            )

    @property
    def n_patches(self) -> int:
        side = self.image_size // self.patch_size
        return side * side


@dataclass
class LmConfig:
    hidden_size: int = 64
    n_layers: int = 2
    n_heads: int = 4
    vocab_size: int = 512
    max_len: int = 256
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.hidden_size % self.n_heads:
            raise ValueError(
                f"lm hidden_size {self.hidden_size} not divisible by n_heads {self.n_heads}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(
                f"config field lm.dropout_rate must lie in [0, 1), got {self.dropout_rate!r}"
            )


@dataclass
class ModelConfig:
    vision: VisionConfig = field(default_factory=VisionConfig)
    lm: LmConfig = field(default_factory=LmConfig)

    @property
    def n_img_tokens(self) -> int:
        return self.vision.n_patches


@dataclass
class SelectionConfig:
    """Relative-threshold + top-k context selection."""

    tau: float = 0.5
    k: int = 5

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass
class GenerationConfig:
    """Greedy decoding limits: 64 new tokens suits short-answer corpora,
    128 sentence-answer corpora."""

    max_new_tokens: int = 64

    def __post_init__(self):
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")


# Instructional prefix prepended to every QA model input. Kept in config so
# experiments can vary the wording.
QA_PROMPT = "answer the question using the given contexts:"


def _check_schedule(owner: str, cfg, rates):
    """Reject a schedule that cannot train: ``epochs`` or ``global_batch``
    below 1, or a set rate among ``rates`` that is not a finite number > 0."""
    for name in ("epochs", "global_batch"):
        if getattr(cfg, name) < 1:
            raise ValueError(f"{owner} {name} must be >= 1, got {getattr(cfg, name)!r}")
    for name in rates:
        val = getattr(cfg, name)
        if val is not None and not 0.0 < val < math.inf:
            raise ValueError(f"{owner} {name} must be a finite number > 0, got {val!r}")


@dataclass
class StageConfig:
    """One pretraining stage's schedule. The stage trains the vision encoder
    iff ``ve_lr`` is set and the language model iff ``lm_lr`` is set."""

    stage: int
    global_batch: int
    epochs: int
    lm_lr: float | None
    ve_lr: float | None

    def __post_init__(self):
        _check_schedule(f"stage {self.stage}", self, ("lm_lr", "ve_lr"))
        if self.lm_lr is None and self.ve_lr is None:
            raise ValueError(f"stage {self.stage} sets neither lm_lr nor ve_lr, so nothing trains")


def pretrain_stage_defaults(stage: int) -> StageConfig:
    """Published per-stage schedule: stage 1 trains the vision encoder alone,
    stage 2 trains both components jointly, stage 3 the language model alone."""
    table = {
        1: StageConfig(1, 256, 1, None, 1e-3),
        2: StageConfig(2, 128, 1, 1e-4, 5e-4),
        3: StageConfig(3, 128, 1, 1e-4, None),
    }
    if stage not in table:
        raise ValueError(f"stage must be 1, 2 or 3, got {stage}")
    return table[stage]


def desk_stage_config(stage: int) -> StageConfig:
    """Desk-scale overrides: tiny batches and more epochs because the desk
    backbone starts from random weights. Stage 2 keeps the published 5:1
    vision-to-language lr ratio; hotter rates were observed to collapse the
    vision encoder's information content at this scale."""
    cfg = pretrain_stage_defaults(stage)
    if stage == 1:
        return dataclasses.replace(cfg, global_batch=8, epochs=2)
    if stage == 2:
        return dataclasses.replace(cfg, global_batch=8, epochs=24, ve_lr=1e-3, lm_lr=2e-4)
    return dataclasses.replace(cfg, global_batch=8, epochs=24, lm_lr=1e-3)


@dataclass
class FinetuneConfig:
    """Fine-tuning schedule for one head; vision encoder frozen in both."""

    global_batch: int
    epochs: int
    lr: float

    def __post_init__(self):
        _check_schedule("finetune", self, ("lr",))


def finetune_defaults(task: str) -> FinetuneConfig:
    table = {
        "reranker": FinetuneConfig(256, 3, 2e-4),
        "qa": FinetuneConfig(16, 5, 5e-5),
    }
    if task not in table:
        raise ValueError(f"task must be 'reranker' or 'qa', got {task}")
    return table[task]


def desk_finetune_config(task: str) -> FinetuneConfig:
    cfg = finetune_defaults(task)
    if task == "reranker":
        # global_batch is the per-question document batch size
        return dataclasses.replace(cfg, global_batch=8, lr=2e-3)
    return dataclasses.replace(cfg, global_batch=4, epochs=12, lr=1.5e-3)


def model_profile(name: str, vocab_size: int = 512) -> ModelConfig:
    """Construct a named model profile; 'base'/'large' mirror the published
    component table, 'desk' is the trainable small configuration."""
    if name == "base":
        return ModelConfig(
            vision=VisionConfig(patch_size=16, image_size=224),
            lm=LmConfig(hidden_size=768, n_layers=12, n_heads=12, vocab_size=vocab_size,
                        max_len=512, dropout_rate=0.05),
        )
    if name == "large":
        return ModelConfig(
            vision=VisionConfig(patch_size=16, image_size=224),
            lm=LmConfig(hidden_size=1024, n_layers=24, n_heads=16, vocab_size=vocab_size,
                        max_len=512, dropout_rate=0.1),
        )
    if name == "desk":
        return ModelConfig(vision=VisionConfig(), lm=LmConfig(vocab_size=vocab_size))
    raise ValueError(f"unknown profile {name!r} (expected base, large or desk)")


def config_to_dict(cfg: ModelConfig) -> dict:
    return dataclasses.asdict(cfg)


def _check_field(name: str, default, val):
    """Snapshot values keep their default's type; integer fields are sizes
    and counts, so they must be >= 1."""
    if isinstance(default, int):
        ok = isinstance(val, int) and not isinstance(val, bool) and val >= 1
        kind = "an integer >= 1"
    else:
        # compared, not converted: a JSON integer can be too large for a float
        ok = isinstance(val, (int, float)) and not isinstance(val, bool) and -math.inf < val < math.inf
        kind = "a finite number"
    if not ok:
        raise ValueError(f"config field {name} must be {kind}, got {val!r}")


def _section_from_dict(cls, d, section: str):
    if not isinstance(d, dict):
        raise ValueError(f"config section {section!r} must be an object, got {type(d).__name__}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {section} config fields {unknown}")
    for key, val in d.items():
        _check_field(f"{section}.{key}", defaults[key], val)
    return cls(**d)


def config_from_dict(d: dict) -> ModelConfig:
    """Inverse of ``config_to_dict``. Malformed input raises ValueError
    naming the offending section or field."""
    if not isinstance(d, dict):
        raise ValueError(f"config must be an object, got {type(d).__name__}")
    unknown = sorted(set(d) - {"vision", "lm"})
    if unknown:
        raise ValueError(f"unknown config fields {unknown}")
    for section in ("vision", "lm"):
        if section not in d:
            raise ValueError(f"config has no {section!r} section")
    return ModelConfig(
        vision=_section_from_dict(VisionConfig, d["vision"], "vision"),
        lm=_section_from_dict(LmConfig, d["lm"], "lm"),
    )
