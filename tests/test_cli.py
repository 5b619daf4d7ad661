"""End-to-end command tests against a small generated dataset."""

import hashlib
import json
import shutil
import struct
import sys

import numpy as np
import pytest

from oracles import convert_sentence, sentence_decode

from metaner import cli as cli_mod
from metaner import trainer as trainer_mod
from metaner.augment import EntityDict, SynonymDict
from metaner.autodiff import NumericError
from metaner.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from metaner.cli import _load_training_corpus, main
from metaner.config import RunConfig
from metaner.corpus import read_conll, span_f1, write_conll
from metaner.tagger import TaggerModel
from metaner.trainer import read_weight_rows
from metaner.vectors import read_vector_file


def base_config(synth_dataset, out_dir, **overrides):
    lines = {
        "train": synth_dataset["train"],
        "dev": synth_dataset["dev"],
        "test": synth_dataset["test"],
        "vectors": synth_dataset["vectors"],
        "stopwords": synth_dataset["stopwords"],
        "out": out_dir,
        "model.emb_dim": 12,
        "model.hidden": 6,
        "steps": 6,
        "batch": 2,
        "meta_batch": 1,
        "eval_every": 3,
        "seed": 1,
    }
    lines.update(overrides)
    return "\n".join(f"{k}={v}" for k, v in lines.items()) + "\n"


# sha256 of `build-dict --k 5`'s synonyms.tsv on the seed-0 synthetic dataset,
# as written by the exhaustive search over the whole similarity matrix.
SYNONYMS_K5_SHA256 = "e120ad263654bef35e654464eb7c5ed2d12fd71ba9f834b1ad3e83b467abf34f"

# sha256 of `eval`'s outputs for the `trained` checkpoint on the seed-0
# synthetic test split, as written by decoding one sentence at a time.
EVAL_SHA256 = {
    "predictions_test.conll": "2543207acdb12f728dedc8113bdaa4e57f9b3b0ff9997ec0e6632a9b0b080620",
    "metrics_test.json": "2b824c21d46ba0585a6c99deee97a9464d68b5ee58fad1ceb6921c37c8364d08",
}


# sha256 of the corpus `_load_training_corpus` returns for the seed-0
# synthetic train split (tokens, labels, label and token vocabularies), as
# built when every sentence was converted to BIOES.
TRAIN_CORPUS_SHA256 = "5ffb1084d7d160c68042c07abfd236c6d88ba65099eb016891f467f8988c186e"


# sha256 of `train`'s artifacts for three seed-1 runs on the seed-0 synthetic
# dataset: the `trained` fixture (method=baseline, reweighting on), and
# method=both with the embedding-layer (`run_dir`) and the encoder-layer
# (`encoder_run_dir`) mix, as written when the reweighted step computed its
# lookahead weights inline. `summary.json` holds the dev and test span F1,
# as scored when `span_f1` parsed each sentence's spans on its own.
TRAIN_SHA256 = {
    "trained": {
        "history.jsonl": "52223b4203eea6e07b6f3395cf9d62b83b1dee27cd0430a55e55bdbdd41c1371",
        "weights.tsv": "10687bba1a5eeeb2bcd8de5979b1a1686e402bec828113d2d60bd1484a750236",
        "model.ckpt": "bcd27f938ada4c8fbb228922562b5701d1cab595c32bd7bbcf700f518c969222",
        "summary.json": "cefd2906c32aebb8977e6040af48dda2179e0556c4161b83b16a4c2294a19b8e",
    },
    "run_dir": {
        "history.jsonl": "2d0668d37372cc4b52399e377a92bb73509d730b7c2e4938cf5abd48cb836429",
        "weights.tsv": "2fff3779f01be6441ca374934d12ea406d0649441b46bf35dac7b361e7e33081",
        "model.ckpt": "20ed26fc9ea6058bdfab447882098efbfa77d57ef4b428bf31ecac291d3ed3c0",
        "summary.json": "c1bc16fa8155b271c7a94db5ff65776b75b0854f2124c05fc0aab1d3e739f4ab",
    },
    "encoder_run_dir": {
        "history.jsonl": "79c89b99924661cdf762e45149ad6b89ac8535febc2b8e49d12f4d1e96c34283",
        "weights.tsv": "42592fac6db14d97c1b3ceb8b7aa281eacae6d932c22c36f165a48925dcc3eea",
        "model.ckpt": "f5fe84be32790ccb99223ab6922fe430556c978e2a088cdc6a6008108b2d269c",
        "summary.json": "c1bc16fa8155b271c7a94db5ff65776b75b0854f2124c05fc0aab1d3e739f4ab",
    },
}


def corpus_digest(corpus):
    sentences = [[list(ex.tokens), list(ex.labels)] for ex in corpus.examples]
    blob = json.dumps(sentences + [corpus.label_vocab, corpus.token_vocab])
    return hashlib.sha256(blob.encode()).hexdigest()


def count_opens(monkeypatch, path):
    """The `open` calls on `path` from here on, recorded as they happen."""
    opened = []
    real_open = open

    def counting(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting)
    return opened


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestBuildDict:
    def test_writes_both_dictionaries(self, synth_dataset, tmp_path, capsys):
        out = tmp_path / "dicts"
        rc = main(
            [
                "build-dict",
                "--train", str(synth_dataset["train"]),
                "--vectors", str(synth_dataset["vectors"]),
                "--stopwords", str(synth_dataset["stopwords"]),
                "--k", "3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        edict = EntityDict.load(out / "entities.tsv")
        assert set(edict.mentions) <= {"PER", "LOC", "ORG"}
        assert len(edict) > 0
        sdict = SynonymDict.load(out / "synonyms.tsv")
        assert all(len(pool) <= 3 for pool in sdict.synonyms.values())
        assert "the" not in sdict.synonyms
        assert (out / "resolved_args.cfg").exists()
        assert "entities.tsv" in capsys.readouterr().out

    def test_synonym_dictionary_bytes_are_pinned(self, synth_dataset, tmp_path, capsys):
        out = tmp_path / "dicts"
        rc = main(
            [
                "build-dict",
                "--train", str(synth_dataset["train"]),
                "--vectors", str(synth_dataset["vectors"]),
                "--stopwords", str(synth_dataset["stopwords"]),
                "--k", "5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        got = hashlib.sha256((out / "synonyms.tsv").read_bytes()).hexdigest()
        assert got == SYNONYMS_K5_SHA256

    def test_missing_flag_exits_one(self, capsys):
        assert main(["build-dict", "--out", "/tmp/x"]) == 1

    def test_reads_the_train_file_once(self, synth_dataset, tmp_path, monkeypatch):
        opened = count_opens(monkeypatch, synth_dataset["train"])
        rc = main(
            [
                "build-dict",
                "--train", str(synth_dataset["train"]),
                "--vectors", str(synth_dataset["vectors"]),
                "--out", str(tmp_path / "dicts"),
            ]
        )
        assert rc == 0
        assert len(opened) == 1


class TestAugmentCommand:
    def test_count_contract_ts_only(self, synth_dataset, tmp_path):
        out = tmp_path / "aug"
        cfg = write_config(
            tmp_path, base_config(synth_dataset, out, method="ts", times=5, p_sub=0.5)
        )
        assert main(["augment", "--config", str(cfg)]) == 0
        pseudo = read_conll(out / "pseudo.conll")
        assert len(pseudo) == 100  # 5 x 20 sentences, all substitution
        manifest = (out / "mixup_pairs.tsv").read_text().strip().split("\n")
        assert manifest == ["id1\tid2\tlambda"]
        assert (out / "resolved_config.cfg").exists()

    def test_both_methods_split_across_files(self, synth_dataset, tmp_path):
        out = tmp_path / "aug2"
        cfg = write_config(
            tmp_path, base_config(synth_dataset, out, method="both", times=2, p_sub=0.5)
        )
        assert main(["augment", "--config", str(cfg)]) == 0
        pseudo = read_conll(out / "pseudo.conll")
        manifest = (out / "mixup_pairs.tsv").read_text().strip().split("\n")[1:]
        assert len(pseudo) == 20
        assert len(manifest) == 20
        id1, id2, lam = manifest[0].split("\t")
        assert id1.startswith("train-") and id2.startswith("train-")
        assert 0.0 <= float(lam) <= 1.0

    def test_baseline_method_rejected(self, synth_dataset, tmp_path, capsys):
        cfg = write_config(
            tmp_path, base_config(synth_dataset, tmp_path / "x", method="baseline")
        )
        assert main(["augment", "--config", str(cfg)]) == 1
        assert "method" in capsys.readouterr().err


class TestTrainCommand:
    def test_artifacts_and_summary(self, synth_dataset, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path, base_config(synth_dataset, out, method="both", times=1, p_sub=0.5)
        )
        assert main(["train", "--config", str(cfg)]) == 0
        for name in (
            "model.ckpt",
            "history.jsonl",
            "weights.tsv",
            "summary.json",
            "resolved_config.cfg",
        ):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "both"
        assert 0.0 <= summary["best_dev_f1"] <= 1.0
        assert set(summary["dev"]) == {"precision", "recall", "f1", "support"}
        assert "test" in summary
        history = [
            json.loads(line)
            for line in (out / "history.jsonl").read_text().strip().split("\n")
        ]
        assert [h["step"] for h in history] == [3, 6]
        rows = read_weight_rows(out / "weights.tsv")
        assert len(rows) == 6 * 2
        resolved = (out / "resolved_config.cfg").read_text()
        assert "clip=5.0" in resolved.split("\n")

    def test_reads_the_vector_file_once(self, synth_dataset, tmp_path, monkeypatch):
        calls = []

        def counting(path):
            calls.append(path)
            return read_vector_file(path)

        # Every module that bound the reader, whichever they are.
        for name, module in list(sys.modules.items()):
            bound = vars(module).get("read_vector_file")
            if name.startswith("metaner") and bound is read_vector_file:
                monkeypatch.setattr(module, "read_vector_file", counting)
        cfg = write_config(
            tmp_path, base_config(synth_dataset, tmp_path / "run", method="both", steps=2)
        )
        assert main(["train", "--config", str(cfg)]) == 0
        assert len(calls) == 1

    def test_missing_required_key_exits_one(self, synth_dataset, tmp_path, capsys):
        text = base_config(synth_dataset, tmp_path / "r")
        text = "\n".join(l for l in text.split("\n") if not l.startswith("dev="))
        cfg = write_config(tmp_path, text)
        assert main(["train", "--config", str(cfg)]) == 1
        assert "dev" in capsys.readouterr().err

    def test_identical_configs_identical_artifacts(self, synth_dataset, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = write_config(
                tmp_path,
                base_config(synth_dataset, out, method="ts", times=1, p_sub=0.5),
                name=f"{name}.cfg",
            )
            assert main(["train", "--config", str(cfg)]) == 0
            outs.append(out)
        a, b = outs
        for name in ("history.jsonl", "weights.tsv", "model.ckpt", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestTrainingCorpus:
    def test_corpus_is_pinned(self, synth_dataset):
        corpus = _load_training_corpus(RunConfig(train=str(synth_dataset["train"])))
        assert corpus_digest(corpus) == TRAIN_CORPUS_SHA256

    def test_bio_copy_trains_as_the_bioes_original(self, synth_dataset, tmp_path):
        """BIO input is converted, and then trains as its BIOES original does."""
        bio = dict(synth_dataset)
        for split in ("train", "dev", "test"):
            examples = read_conll(synth_dataset[split]).examples
            bio[split] = tmp_path / f"{split}.bio.conll"
            write_conll([convert_sentence(ex, "BIO") for ex in examples], bio[split])
        assert "E-" not in bio["train"].read_text()
        outs = []
        for name, dataset, extra in (
            ("bioes", synth_dataset, {}),
            ("bio", bio, {"scheme": "BIO"}),
        ):
            out = tmp_path / name
            text = base_config(dataset, out, method="both", times=1, p_sub=0.5, **extra)
            cfg = write_config(tmp_path, text, name=f"{name}.cfg")
            assert main(["train", "--config", str(cfg)]) == 0
            outs.append(out)
        for name in ("summary.json", "history.jsonl", "weights.tsv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.fixture(scope="module")
def trained(synth_dataset, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("eval-model")
    out = tmp / "run"
    cfg = write_config(tmp, base_config(synth_dataset, out))
    assert main(["train", "--config", str(cfg)]) == 0
    return out / "model.ckpt"


@pytest.fixture(scope="module")
def run_dir(synth_dataset, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("inspect")
    out = tmp / "run"
    cfg = write_config(
        tmp, base_config(synth_dataset, out, method="both", times=1, p_sub=0.5)
    )
    assert main(["train", "--config", str(cfg)]) == 0
    return out


@pytest.fixture(scope="module")
def encoder_run_dir(synth_dataset, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("encoder-mix")
    out = tmp / "run"
    text = base_config(
        synth_dataset, out, method="both", times=1, p_sub=0.5, mix_layer="encoder"
    )
    assert main(["train", "--config", str(write_config(tmp, text))]) == 0
    return out


class TestTrainingBytes:
    @pytest.mark.parametrize("fixture", sorted(TRAIN_SHA256))
    def test_artifacts_are_pinned(self, request, fixture):
        out = request.getfixturevalue(fixture)
        if out.is_file():  # `trained` is the checkpoint
            out = out.parent
        for name, digest in TRAIN_SHA256[fixture].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


class TestDivergedRun:
    def test_exits_two_keeping_the_best_checkpoint(
        self, synth_dataset, tmp_path, monkeypatch, capsys, trained
    ):
        # The `trained` run's best eval is its first, at step 3, so a run of
        # the same config that diverges at step 5 has saved the same file.
        step = trainer_mod.meta_train_step
        calls = []

        def diverge_at_5(*args, **kwargs):
            calls.append(None)
            if len(calls) == 5:
                raise NumericError("boom")
            return step(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "meta_train_step", diverge_at_5)
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_config(synth_dataset, out))
        assert main(["train", "--config", str(cfg)]) == 2
        assert "diverged at step 5" in capsys.readouterr().err
        assert (out / "model.ckpt").read_bytes() == trained.read_bytes()
        assert load_checkpoint(out / "model.ckpt")[1]["run"]["best_step"] == 3
        assert not (out / "model.ckpt.tmp").exists()

    def test_leaves_no_artifact_of_an_earlier_run(self, synth_dataset, tmp_path, monkeypatch):
        out = tmp_path / "run"
        first = write_config(tmp_path, base_config(synth_dataset, out), "first.cfg")
        assert main(["train", "--config", str(first)]) == 0
        artifacts = {"model.ckpt", "history.jsonl", "weights.tsv", "summary.json"}
        assert artifacts <= {p.name for p in out.iterdir()}

        # A config error exits 1 before anything in `out` is touched.
        typo = write_config(tmp_path, base_config(synth_dataset, out, stpes=3), "typo.cfg")
        assert main(["train", "--config", str(typo)]) == 1
        assert artifacts <= {p.name for p in out.iterdir()}

        def diverge(*args, **kwargs):
            raise NumericError("boom")

        monkeypatch.setattr(trainer_mod, "meta_train_step", diverge)
        second = write_config(tmp_path, base_config(synth_dataset, out, seed=2), "second.cfg")
        assert main(["train", "--config", str(second)]) == 2
        assert [p.name for p in out.iterdir()] == ["resolved_config.cfg"]
        assert "seed=2" in (out / "resolved_config.cfg").read_text().splitlines()


class TestEvalCommand:
    def test_writes_predictions_and_metrics(
        self, synth_dataset, trained, capsys, tmp_path, monkeypatch
    ):
        rc = main(["eval", "--model", str(trained), "--data", str(synth_dataset["test"])])
        assert rc == 0
        out_dir = trained.parent
        preds = read_conll(out_dir / "predictions_test.conll")
        gold = read_conll(synth_dataset["test"])
        assert len(preds) == len(gold)
        assert all(p.tokens == g.tokens for p, g in zip(preds.examples, gold.examples))
        metrics = json.loads((out_dir / "metrics_test.json").read_text())
        assert set(metrics) == {"precision", "recall", "f1", "support"}
        stdout_metrics = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert stdout_metrics == metrics

        # The same bytes as decoding each sentence through its own graph.
        shutil.copy(trained, tmp_path / trained.name)
        monkeypatch.setattr(
            TaggerModel, "decode", lambda model, tokens, *_: sentence_decode(model, tokens)[1]
        )
        rc = main(["eval", "--model", str(tmp_path / trained.name),
                   "--data", str(synth_dataset["test"])])
        assert rc == 0
        for name, digest in EVAL_SHA256.items():
            got = (out_dir / name).read_bytes()
            assert got == (tmp_path / name).read_bytes()
            assert hashlib.sha256(got).hexdigest() == digest

    def test_bio_input_gets_bio_predictions(self, synth_dataset, trained, tmp_path):
        gold = read_conll(synth_dataset["test"]).convert("BIO")
        from metaner.corpus import write_conll

        bio_path = tmp_path / "test_bio.conll"
        write_conll(gold, bio_path)
        assert main(["eval", "--model", str(trained), "--data", str(bio_path)]) == 0
        preds = read_conll(trained.parent / "predictions_test_bio.conll", scheme="BIO")
        labels = {lab for ex in preds.examples for lab in ex.labels}
        assert not any(lab.startswith(("E-", "S-")) for lab in labels)

    def test_perfect_predictions_score_one(self, synth_dataset):
        gold = read_conll(synth_dataset["test"])
        labels = [list(ex.labels) for ex in gold.examples]
        assert span_f1(labels, labels, scheme="BIOES")["f1"] == 1.0

    def test_reads_the_data_file_once(self, synth_dataset, trained, monkeypatch):
        opened = count_opens(monkeypatch, synth_dataset["test"])
        assert main(["eval", "--model", str(trained), "--data", str(synth_dataset["test"])]) == 0
        assert len(opened) == 1

    def test_bad_label_names_line_and_scheme(self, synth_dataset, trained, tmp_path, capsys):
        bad = tmp_path / "bad.conll"
        bad.write_text("John B-PER\nSmith I-PER\n\nParis X-LOC\n")
        assert main(["eval", "--model", str(trained), "--data", str(bad)]) == 1
        assert f"{bad}:4: label 'X-LOC' invalid for scheme BIO" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, message",
        [
            ("header-not-json", "header is not UTF-8 JSON"),
            ("no-config", "header has no config block"),
            ("no-token-vocab", "config has no valid token_vocab"),
            ("model-not-object", "config has no valid model"),
            ("unknown-model-key", "unexpected keyword argument 'depth'"),
            ("missing-array", "crf.T is missing, expected (11, 10)"),
            ("bad-shape", "crf.b is (3,), expected (10,)"),
            ("label-not-a-string", "label_vocab and token_vocab must hold strings"),
            ("token-not-a-string", "label_vocab and token_vocab must hold strings"),
            ("label-repeated", "label_vocab must hold distinct labels"),
            ("label-invalid", "label 'X-LOC' invalid for scheme BIOES"),
            ("lowercase-a-string", "model lowercase must be bool"),
            ("emb-dim-a-float", "model emb_dim must be int"),
            ("hidden-a-float", "model hidden must be int"),
            ("hidden-a-bool", "model hidden must be int"),
        ],
    )
    def test_malformed_checkpoint_exits_one_naming_file(
        self, synth_dataset, trained, tmp_path, capsys, case, message
    ):
        arrays, config, version = load_checkpoint(trained)
        header = None
        if case == "header-not-json":
            header = b"{nope"
        elif case == "no-config":
            header = json.dumps({"format_version": version}).encode()
        elif case == "no-token-vocab":
            del config["token_vocab"]
        elif case == "model-not-object":
            config["model"] = 3
        elif case == "unknown-model-key":
            config["model"]["depth"] = 2
        elif case == "missing-array":
            del arrays["crf.T"]
        elif case == "bad-shape":
            arrays["crf.b"] = np.zeros(3)
        elif case == "label-not-a-string":
            config["label_vocab"][-1] = 7
        elif case == "token-not-a-string":
            config["token_vocab"][-1] = None
        elif case == "label-repeated":
            config["label_vocab"][-1] = config["label_vocab"][0]
        elif case == "label-invalid":
            config["label_vocab"][-1] = "X-LOC"
        elif case == "lowercase-a-string":  # would load as true: a cased model lowercasing
            config["model"]["lowercase"] = "false"
        elif case == "emb-dim-a-float":
            config["model"]["emb_dim"] = float(config["model"]["emb_dim"])
        elif case == "hidden-a-float":
            config["model"]["hidden"] = float(config["model"]["hidden"])
        elif case == "hidden-a-bool":
            config["model"]["hidden"] = True
        bad = tmp_path / "bad.ckpt"
        if header is None:
            save_checkpoint(bad, arrays, config)
        else:
            bad.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + struct.pack("<I", 0))
        assert main(["eval", "--model", str(bad), "--data", str(synth_dataset["test"])]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: " in err and message in err

    def test_missing_model_exits_one(self, synth_dataset, capsys):
        rc = main(["eval", "--model", "/nonexistent.ckpt", "--data", str(synth_dataset["test"])])
        assert rc == 1


class TestInspectWeights:
    def test_dump_matches_file(self, run_dir, capsys):
        assert main(["inspect-weights", "--run", str(run_dir)]) == 0
        dumped = capsys.readouterr().out.strip().split("\n")
        on_disk = (run_dir / "weights.tsv").read_text().strip().split("\n")
        assert dumped == on_disk

    def test_summary_aggregates_by_provenance(self, run_dir, capsys):
        assert main(["inspect-weights", "--run", str(run_dir), "--summary"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "provenance\tcount\tmean_weight\tmean_weight_last_third"
        provenances = {line.split("\t")[0] for line in out[1:]}
        assert "clean" in provenances

    def test_missing_weights_exits_one(self, tmp_path, capsys):
        assert main(["inspect-weights", "--run", str(tmp_path)]) == 1
        assert "weights.tsv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2\tclean-0\tclean", "expected 4 columns, got 3"),
            ("2\tclean-0\tclean\tabc", "could not convert string to float: 'abc'"),
            ("two\tclean-0\tclean\t0.5", "invalid literal for int()"),
        ],
        ids=["three-columns", "bad-weight", "bad-step"],
    )
    def test_bad_row_names_file_and_line(self, run_dir, tmp_path, capsys, row, message):
        lines = (run_dir / "weights.tsv").read_text().split("\n")
        lines[2] = row
        (tmp_path / "weights.tsv").write_text("\n".join(lines))
        assert main(["inspect-weights", "--run", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'weights.tsv'}:3: {message}" in err


class TestExitCodes:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_unknown_command_exits_one(self):
        assert main(["frobnicate"]) == 1

    def test_config_error_exits_one(self, synth_dataset, tmp_path, capsys):
        cfg = write_config(tmp_path, "bogus=1\n")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_malformed_corpus_exits_one(self, synth_dataset, tmp_path, capsys):
        bad = tmp_path / "bad.conll"
        bad.write_text("word B-PER extra\n")
        cfg = write_config(
            tmp_path,
            base_config(synth_dataset, tmp_path / "out", train=bad),
        )
        assert main(["train", "--config", str(cfg)]) == 1
        assert "bad.conll:1" in capsys.readouterr().err


class TestBadNumbers:
    """Out-of-range and non-finite numbers exit 1 at parse time, naming file and line."""

    @pytest.mark.parametrize(
        "key, value",
        [
            ("lr", "nan"),
            ("beta", "nan"),
            ("delta", "nan"),
            ("beta1", "1.0"),
            ("beta2", "1.0"),
            ("clip", "0"),
            ("weight_decay", "-1"),
            ("alpha", "inf"),
            ("model.dropout", "1.0"),
            ("model.dropout", "-0.1"),
            ("model.hidden", "0"),
            ("seed", "-1"),
        ],
    )
    def test_config_value_rejected_with_line(
        self, synth_dataset, tmp_path, capsys, key, value
    ):
        text = base_config(synth_dataset, tmp_path / "out", **{key: value})
        cfg = write_config(tmp_path, text)
        lineno = text.split("\n").index(f"{key}={value}") + 1
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:{lineno}:" in err
        assert key.removeprefix("model.") in err

    def test_emb_dim_unlike_the_vectors_names_file_and_line(
        self, synth_dataset, tmp_path, capsys
    ):
        text = base_config(synth_dataset, tmp_path / "out", **{"model.emb_dim": 8})
        cfg = write_config(tmp_path, text)
        lineno = text.split("\n").index("model.emb_dim=8") + 1
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:{lineno}:" in err
        assert str(synth_dataset["vectors"]) in err
        assert "emb_dim" in err

    def test_fraction_leaving_no_sentence_names_line(self, synth_dataset, tmp_path, capsys):
        text = base_config(synth_dataset, tmp_path / "out", fraction=0.01)
        cfg = write_config(tmp_path, text)
        lineno = text.split("\n").index("fraction=0.01") + 1
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:{lineno}:" in err
        assert "fraction" in err

    def test_non_finite_vector_rejected_with_line(self, synth_dataset, tmp_path, capsys):
        lines = synth_dataset["vectors"].read_text().splitlines()
        word = lines[2].split()[0]
        lines[2] = f"{word} " + " ".join(["nan"] + lines[2].split()[2:])
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path, base_config(synth_dataset, tmp_path / "out", vectors=vectors)
        )
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{vectors}:3:" in err
        assert "non-finite" in err


class TestWrongKindOfPath:
    """A directory where a file belongs, or a file where a directory belongs,
    is bad input: exit 1 with one error line that names it, and no traceback."""

    @pytest.mark.parametrize(
        "argv, keys, bad",
        [
            (["train", "--config", "{dir}"], {}, "{dir}"),
            (
                ["train", "--config", "{cfg}"],
                {"train": "{dir}"},
                "{cfg}:1: train is not a regular file: {dir}",
            ),
            (
                ["train", "--config", "{cfg}"],
                {"dev": "{dir}"},
                "{cfg}:2: dev is not a regular file: {dir}",
            ),
            (
                ["train", "--config", "{cfg}"],
                {"out": "{file}"},
                "{cfg}:6: out is not a directory: {file}",
            ),
            (
                ["augment", "--config", "{cfg}"],
                {"out": "{file}", "method": "ts"},
                "{cfg}:6: out is not a directory: {file}",
            ),
            (
                ["train", "--config", "{cfg}"],
                {"out": "{file}/x"},
                "{cfg}:6: out is under {file}, a file: {file}/x",
            ),
            (
                ["augment", "--config", "{cfg}"],
                {"out": "{file}/x/y", "method": "ts"},
                "{cfg}:6: out is under {file}, a file: {file}/x/y",
            ),
            (["eval", "--model", "{dir}", "--data", "{test}"], {}, "{dir}"),
            (["eval", "--model", "{model}", "--data", "{dir}"], {}, "{dir}"),
            (["eval", "--model", "{file}/model.ckpt", "--data", "{test}"], {}, "{file}"),
            (
                ["build-dict", "--train", "{dir}", "--vectors", "{vectors}", "--out", "{out}"],
                {},
                "{dir}",
            ),
            (
                ["build-dict", "--train", "{test}", "--vectors", "{vectors}", "--out", "{file}"],
                {},
                "{file}",
            ),
        ],
        ids=[
            "train-config", "train-key", "dev-key", "train-out", "augment-out",
            "train-out-under-a-file", "augment-out-under-a-file",
            "eval-model", "eval-data", "eval-model-under-a-file", "build-dict-train",
            "build-dict-out",
        ],
    )
    def test_exits_one_naming_the_path(
        self, synth_dataset, trained, tmp_path, capsys, argv, keys, bad
    ):
        (tmp_path / "a-dir").mkdir()
        (tmp_path / "a-file").write_text("x\n")
        names = {
            "dir": tmp_path / "a-dir",
            "file": tmp_path / "a-file",
            "cfg": tmp_path / "run.cfg",
            "out": tmp_path / "out",
            "model": trained,
            "test": synth_dataset["test"],
            "vectors": synth_dataset["vectors"],
        }
        overrides = {k: v.format(**names) for k, v in keys.items()}
        write_config(tmp_path, base_config(synth_dataset, names["out"], **overrides))
        assert main([arg.format(**names) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith("metaner: error: ")
        assert bad.format(**names) in line

    @pytest.mark.parametrize(
        "flags, bad",
        [
            (["--out", "{file}/x"], "--out is under {file}, a file: {file}/x"),
            (["--out", "{out}", "--k", "0"], "--k must be >= 1, got 0"),
            (
                ["--out", "{out}", "--vectors", "{missing}"],
                "--vectors file does not exist: {missing}",
            ),
            (
                ["--out", "{out}", "--stopwords", "{missing}"],
                "--stopwords file does not exist: {missing}",
            ),
            (
                ["--out", "{out}", "--stopwords", "{dir}"],
                "--stopwords is not a regular file: {dir}",
            ),
        ],
        ids=[
            "out-under-a-file", "k-zero", "vectors-missing", "stopwords-missing",
            "stopwords-a-directory",
        ],
    )
    def test_build_dict_checks_its_flags_before_reading(
        self, synth_dataset, tmp_path, monkeypatch, capsys, flags, bad
    ):
        def unread(*args, **kwargs):
            raise AssertionError("the corpus was read before the flags were checked")

        monkeypatch.setattr(cli_mod, "read_conll", unread)
        (tmp_path / "a-file").write_text("x\n")
        (tmp_path / "a-dir").mkdir()
        names = {
            "file": tmp_path / "a-file",
            "out": tmp_path / "out",
            "missing": tmp_path / "missing.txt",
            "dir": tmp_path / "a-dir",
        }
        argv = ["build-dict", "--train", str(synth_dataset["train"])]
        argv += ["--vectors", str(synth_dataset["vectors"])]
        assert main(argv + [flag.format(**names) for flag in flags]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "metaner: error: " + bad.format(**names)


class TestNotUtf8:
    """A byte that is not UTF-8 is bad input: exit 1, naming the file and line."""

    @staticmethod
    def corrupt_line_3(src, dst):
        lines = src.read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        dst.write_bytes(b"\n".join(lines))
        return dst

    @pytest.mark.parametrize("key", ["train", "vectors", "stopwords"])
    def test_input_file(self, synth_dataset, tmp_path, capsys, key):
        bad = self.corrupt_line_3(synth_dataset[key], tmp_path / f"bad-{key}.txt")
        text = base_config(synth_dataset, tmp_path / "out", method="ts", **{key: bad})
        cfg = write_config(tmp_path, text)
        assert main(["train", "--config", str(cfg)]) == 1
        assert f"{bad}:3: not UTF-8" in capsys.readouterr().err

    def test_config_file(self, synth_dataset, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(synth_dataset, tmp_path / "out"))
        self.corrupt_line_3(cfg, cfg)
        assert main(["train", "--config", str(cfg)]) == 1
        assert f"{cfg}:3: not UTF-8" in capsys.readouterr().err

    def test_weights_file(self, run_dir, tmp_path, capsys):
        bad = self.corrupt_line_3(run_dir / "weights.tsv", tmp_path / "weights.tsv")
        assert main(["inspect-weights", "--run", str(tmp_path)]) == 1
        assert f"{bad}:3: not UTF-8" in capsys.readouterr().err

    def test_eval_data_file(self, synth_dataset, trained, tmp_path, capsys):
        bad = self.corrupt_line_3(synth_dataset["test"], tmp_path / "bad.conll")
        assert main(["eval", "--model", str(trained), "--data", str(bad)]) == 1
        assert f"{bad}:3: not UTF-8" in capsys.readouterr().err


class TestEmptyCorpus:
    """A corpus file with no sentence is bad input: exit 1, naming the file."""

    @staticmethod
    def empty(tmp_path):
        path = tmp_path / "empty.conll"
        path.write_text("\n\n")
        return path

    @pytest.mark.parametrize("key", ["train", "dev", "test"])
    def test_train_command(self, synth_dataset, tmp_path, capsys, key):
        bad = self.empty(tmp_path)
        cfg = write_config(tmp_path, base_config(synth_dataset, tmp_path / "out", **{key: bad}))
        assert main(["train", "--config", str(cfg)]) == 1
        assert f"{bad}: the {key} corpus has no sentences" in capsys.readouterr().err

    def test_augment_command(self, synth_dataset, tmp_path, capsys):
        bad = self.empty(tmp_path)
        text = base_config(synth_dataset, tmp_path / "out", method="ts", train=bad)
        assert main(["augment", "--config", str(write_config(tmp_path, text))]) == 1
        assert f"{bad}: the train corpus has no sentences" in capsys.readouterr().err

    def test_eval_command(self, trained, tmp_path, capsys):
        bad = self.empty(tmp_path)
        assert main(["eval", "--model", str(trained), "--data", str(bad)]) == 1
        assert f"{bad}: the --data corpus has no sentences" in capsys.readouterr().err

    def test_build_dict_command(self, synth_dataset, tmp_path, capsys):
        bad = self.empty(tmp_path)
        rc = main(
            [
                "build-dict",
                "--train", str(bad),
                "--vectors", str(synth_dataset["vectors"]),
                "--out", str(tmp_path / "dicts"),
            ]
        )
        assert rc == 1
        assert f"{bad}: the --train corpus has no sentences" in capsys.readouterr().err
