"""Command-line interface.

Commands:
    build-dict       build entity and synonym dictionaries from a corpus
    augment          write a pseudo corpus and mixup-pair manifest
    train            run the (optionally meta-reweighted) training loop
    eval             decode a labeled file with a checkpoint and score it
    inspect-weights  dump or summarize the per-example weight history

`augment` and `train` are driven by a flat key=value config file; the other
commands take flags. Every artifact-producing run writes its resolved
configuration next to its outputs. Exit codes: 0 success, 1 validation
error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .augment import (
    EntityDict,
    MixedExample,
    PseudoExample,
    Substituted,
    SynonymDict,
    build_entity_dict,
    build_synonym_dict,
    generate_augmented_set,
)
from .config import (
    ConfigError,
    RunConfig,
    check_input_file,
    check_out_dir,
    parse_config,
    render_config,
)
from .corpus import (
    Corpus,
    CorpusFormatError,
    LabeledSequence,
    read_conll,
    scheme_of,
    sentence_spans,
    span_f1,
    subsample,
    write_conll,
)
from .tagger import TaggerModel
from .trainer import WEIGHT_HEADER, WEIGHT_ROW, evaluate, read_weight_rows, train
from .vectors import read_stopword_file, read_vector_file

PROG = "metaner"


def _read_corpus(path: str, scheme: str | None, name: str) -> Corpus:
    """`read_conll(path)`, refusing a file with no sentences; `name` is its key or flag."""
    corpus = read_conll(path, scheme=scheme)
    if not len(corpus):
        raise CorpusFormatError(f"{path}: the {name} corpus has no sentences")
    return corpus


def _load_training_corpus(cfg: RunConfig) -> Corpus:
    corpus = _read_corpus(cfg.train, cfg.scheme, "train").convert("BIOES")
    if cfg.fraction < 1.0:
        try:
            corpus = subsample(corpus, cfg.fraction, seed=cfg.seed)
        except ValueError as exc:
            raise ConfigError(f"{cfg.where('fraction')}: {exc}") from exc
    return corpus


def _check_vector_width(cfg: RunConfig, vectors: dict[str, np.ndarray]) -> None:
    """The vectors initialize the embedding table, so their width must be emb_dim."""
    width = next((v.size for v in vectors.values()), None)
    if width is not None and width != cfg.model.emb_dim:
        raise ConfigError(
            f"{cfg.where('model.emb_dim')}: model.emb_dim is {cfg.model.emb_dim}, "
            f"but the vectors in {cfg.vectors} have dim {width}"
        )


def _pseudo_examples(
    cfg: RunConfig, corpus: Corpus, vectors: dict[str, np.ndarray] | str | None
) -> list[PseudoExample]:
    """The pseudo set `cfg.method` asks for; dictionaries are built only for ts.

    `vectors` is `cfg.vectors`, as its path or already loaded.
    """
    if cfg.method == "baseline":
        return []
    edict, sdict, spans = EntityDict({}), SynonymDict({}), None
    if cfg.use_ts:
        # One parse of the corpus serves the dictionary and the substitution.
        spans = sentence_spans([ex.labels for ex in corpus.examples], corpus.scheme, warn=True)
        edict = build_entity_dict(corpus, spans)
        if cfg.vectors:
            stop = read_stopword_file(cfg.stopwords) if cfg.stopwords else set()
            sdict = build_synonym_dict(vectors, cfg.aug.k, stop)
    return generate_augmented_set(
        corpus,
        cfg.aug,
        seed=cfg.seed,
        edict=edict,
        sdict=sdict,
        use_ts=cfg.use_ts,
        use_mixup=cfg.use_mixup,
        spans=spans,
    )


def _require(cfg: RunConfig, command: str, *keys: str) -> None:
    missing = [k for k in keys if getattr(cfg, k) is None]
    if missing:
        raise ConfigError(
            f"{command} requires config key(s): {', '.join(missing)}"
        )


def _write_resolved(cfg: RunConfig, out_dir: Path) -> None:
    (out_dir / "resolved_config.cfg").write_text(render_config(cfg), encoding="utf-8")


# --- commands -----------------------------------------------------------------


def cmd_build_dict(args) -> int:
    check_out_dir(args.out, "--out")
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    check_input_file(args.vectors, "--vectors")
    if args.stopwords:
        check_input_file(args.stopwords, "--stopwords")
    corpus = _read_corpus(args.train, None, "--train").convert("BIOES")
    edict = build_entity_dict(corpus)
    stop = read_stopword_file(args.stopwords) if args.stopwords else set()
    sdict = build_synonym_dict(args.vectors, args.k, stop)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    edict.save(out / "entities.tsv")
    sdict.save(out / "synonyms.tsv")
    resolved = [
        f"train={args.train}",
        f"vectors={args.vectors}",
        f"stopwords={args.stopwords or ''}",
        f"k={args.k}",
        f"out={args.out}",
    ]
    (out / "resolved_args.cfg").write_text("\n".join(resolved) + "\n", encoding="utf-8")
    print(
        f"wrote {out / 'entities.tsv'} ({len(edict)} mentions, "
        f"{len(edict.mentions)} types) and {out / 'synonyms.tsv'} "
        f"({len(sdict)} words)"
    )
    return 0


def cmd_augment(args) -> int:
    cfg = parse_config(args.config)
    _require(cfg, "augment", "train", "out")
    if cfg.method == "baseline":
        raise ConfigError("augment requires method=ts, mixup, or both")
    pseudo = _pseudo_examples(cfg, _load_training_corpus(cfg), cfg.vectors)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    substituted = [p.example for p in pseudo if isinstance(p, Substituted)]
    write_conll(Corpus(substituted), out / "pseudo.conll")
    with open(out / "mixup_pairs.tsv", "w", encoding="utf-8") as fh:
        fh.write("id1\tid2\tlambda\n")
        for p in pseudo:
            if isinstance(p, MixedExample):
                fh.write(
                    f"train-{p.first_index}\ttrain-{p.second_index}\t{repr(p.lam)}\n"
                )
    _write_resolved(cfg, out)
    n_mixed = len(pseudo) - len(substituted)
    print(
        f"wrote {len(pseudo)} pseudo examples "
        f"({len(substituted)} substituted, {n_mixed} mixed) to {out}"
    )
    return 0


# What `train` writes besides `resolved_config.cfg`.
_TRAIN_ARTIFACTS = ("model.ckpt", "history.jsonl", "weights.tsv", "summary.json")


def cmd_train(args) -> int:
    """Train from a config file. `train()` writes `model.ckpt` atomically at
    each improving dev eval, and it is the only copy of the best parameters;
    a run that diverges exits 2 and leaves the best checkpoint so far.

    Before training it removes `_TRAIN_ARTIFACTS` from `out`, so that no file
    there comes from an earlier run, but only once the config and the
    training inputs have been checked, so that a typo never wipes a good run."""
    cfg = parse_config(args.config)
    _require(cfg, "train", "train", "dev", "out")
    train_corpus = _load_training_corpus(cfg)
    dev_corpus = _read_corpus(cfg.dev, cfg.scheme, "dev").convert("BIOES")
    vectors = read_vector_file(cfg.vectors) if cfg.vectors else None
    if vectors is not None:
        _check_vector_width(cfg, vectors)
    model = TaggerModel.build(train_corpus, cfg.model, seed=cfg.seed, vectors=vectors)
    pseudo = _pseudo_examples(cfg, train_corpus, vectors)
    del vectors  # set-up data: held through training, they raise the peak memory
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in _TRAIN_ARTIFACTS:
        (out / name).unlink(missing_ok=True)
    _write_resolved(cfg, out)
    trainer_cfg = replace(cfg.trainer, seed=cfg.seed)
    result = train(
        model,
        train_corpus,
        pseudo,
        dev_corpus,
        trainer_cfg,
        mix_layer=cfg.aug.mix_layer,
        history_path=out / "history.jsonl",
        weights_path=out / "weights.tsv",
        checkpoint_path=out / "model.ckpt",
        run_fields={"scheme": cfg.scheme, "method": cfg.method, "seed": cfg.seed},
    )
    summary = {
        "method": cfg.method,
        "seed": cfg.seed,
        "steps": trainer_cfg.steps,
        "meta_reweight": trainer_cfg.meta_reweight,
        "best_step": result.best_step,
        "best_dev_f1": result.best_dev_f1,
        "dev": evaluate(result.model, dev_corpus),
    }
    if cfg.test:
        test_corpus = _read_corpus(cfg.test, cfg.scheme, "test").convert("BIOES")
        summary["test"] = evaluate(result.model, test_corpus)
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        f"best dev F1 {result.best_dev_f1:.4f} at step {result.best_step}; "
        f"artifacts in {out}"
    )
    return 0


def cmd_eval(args) -> int:
    model = TaggerModel.load(args.model)
    corpus = _read_corpus(args.data, None, "--data")
    model_scheme = scheme_of(model.label_vocab)
    sentences = [ex.tokens for ex in corpus.examples]
    decoded = [
        LabeledSequence(tokens, tuple(labels), scheme=model_scheme)
        for tokens, labels in zip(sentences, model.decode_all(sentences))
    ]
    predictions = Corpus(decoded, scheme=model_scheme).convert(corpus.scheme, warn=False)
    metrics = span_f1(
        [p.labels for p in predictions.examples],
        [g.labels for g in corpus.examples],
        scheme=corpus.scheme,
    )
    out_dir = Path(args.model).parent
    stem = Path(args.data).stem
    write_conll(predictions, out_dir / f"predictions_{stem}.conll")
    metrics_path = out_dir / f"metrics_{stem}.json"
    metrics_path.write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(metrics, sort_keys=True))
    return 0


def cmd_inspect_weights(args) -> int:
    run_dir = Path(args.run)
    weights_path = run_dir / "weights.tsv"
    if not weights_path.exists():
        raise ConfigError(f"no weights.tsv found in {run_dir}")
    rows = read_weight_rows(weights_path)
    if not args.summary:
        print(WEIGHT_HEADER)
        for row in rows:
            print(WEIGHT_ROW.format(*row))
        return 0
    last_step = max((r[0] for r in rows), default=0)
    cutoff = last_step * 2 / 3
    by_provenance: dict[str, list[float]] = {}
    late: dict[str, list[float]] = {}
    for step, _, provenance, w in rows:
        by_provenance.setdefault(provenance, []).append(w)
        if step > cutoff:
            late.setdefault(provenance, []).append(w)
    print("provenance\tcount\tmean_weight\tmean_weight_last_third")
    for provenance in sorted(by_provenance):
        overall = np.mean(by_provenance[provenance])
        tail = np.mean(late[provenance]) if provenance in late else float("nan")
        print(
            f"{provenance}\t{len(by_provenance[provenance])}"
            f"\t{overall:.6f}\t{tail:.6f}"
        )
    return 0


# --- wiring -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG, description="sequence-labeling trainer with self-augmentation"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-dict", help="build entity and synonym dictionaries")
    p.add_argument("--train", required=True, help="training corpus (CoNLL)")
    p.add_argument("--vectors", required=True, help="word vector file")
    p.add_argument("--stopwords", default=None, help="stop-word list, one per line")
    p.add_argument("--k", type=int, default=5, help="synonyms per word")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_build_dict)

    p = sub.add_parser("augment", help="write pseudo corpus and mixup manifest")
    p.add_argument("--config", required=True, help="run config file")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", help="train a tagger from a config file")
    p.add_argument("--config", required=True, help="run config file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="decode and score a labeled file")
    p.add_argument("--model", required=True, help="model checkpoint")
    p.add_argument("--data", required=True, help="labeled CoNLL file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect-weights", help="dump per-example weight history")
    p.add_argument("--run", required=True, help="training run directory")
    p.add_argument(
        "--summary", action="store_true", help="aggregate by provenance instead"
    )
    p.set_defaults(func=cmd_inspect_weights)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    # Bad input: every config, corpus and checkpoint error is a ValueError, and
    # a flag can name a missing file, a directory for a file or the reverse.
    except (
        ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError
    ) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
