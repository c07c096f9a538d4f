"""Command-line front door.

Subcommands: ``stats``, ``match``, ``invent``, ``eval``, ``features``.
Everything is driven by a JSON config file.  Its keys are the fields of
``AppConfig``: those of ``evaluation.EvalConfig`` (the methods and their
hyperparameters), the five data paths and ``exclude_general``.  Any key
can be overridden by a ``COPA_``-prefixed environment variable, and
flags override both.  Each value is checked against its declared type
and range when the config is loaded.

Exit codes: 0 success, 2 configuration problem, 3 domain problem (e.g.
unknown action), 4 I/O or data-file problem, a dataset too small for the
command, or a leave-one-out fold that failed (the message names the
held-out motion).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import click

from . import classifiers as clfmod
from . import evaluation as evalmod
from . import kb
from .evaluation import EvalConfig
from .features import FEATURE_NAMES, FeatureTable
from .textsim import (
    DomainError,
    EmbeddingStore,
    SimilarityContext,
    TfIdfModel,
    TopicSentenceCorpus,
    WikiCorpus,
    name_key,
)

EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

ENV_PREFIX = "COPA_"

#: each store a method may read (a ``SimilarityContext`` field): the
#: config key of its path and its loader, looked up when called (the
#: benchmark's tracer patches the loaders); tf-idf comes with the wiki
_STORE_FILES = {
    "embeddings": ("embeddings", lambda path: EmbeddingStore.from_file(path)),
    "alt_embeddings": ("alt_embeddings", lambda path: EmbeddingStore.from_file(path)),
    "wiki": ("wiki_corpus", lambda path: WikiCorpus.from_file(path)),
    "sentences": ("sentence_corpus", lambda path: TopicSentenceCorpus.from_jsonl(path)),
}


class ConfigError(Exception):
    pass


class CliDomainError(Exception):
    pass


@dataclass
class AppConfig(EvalConfig):
    """The config record: ``EvalConfig``'s methods and hyperparameters,
    the five data paths and ``exclude_general``, all as flat keys."""

    dataset: str | None = None
    embeddings: str | None = None
    alt_embeddings: str | None = None
    sentence_corpus: str | None = None
    wiki_corpus: str | None = None
    exclude_general: bool = False

    @classmethod
    def load(cls, path: str | None, env=None) -> "AppConfig":
        """File values, then COPA_* environment overrides, then defaults."""
        env = os.environ if env is None else env
        values: dict = {}
        if path is not None:
            try:
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
            except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, long integer, nesting
                raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
            if not isinstance(doc, dict):
                raise ConfigError(f"config {path}: top level must be an object")
            values.update(doc)

        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        for name in fields:
            env_key = ENV_PREFIX + name.upper()
            if env_key in env:
                values[name] = env[env_key]

        unknown = set(values) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

        try:
            return cls(**{name: _coerce(name, value, fields[name]) for name, value in values.items()})
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _coerce(name: str, value, declared: str):
    """``value``, from the JSON file or (as a string) from the environment,
    as the declared type of key ``name``; ConfigError naming the key when
    it is not one."""
    if declared == "tuple[str, ...]":
        if isinstance(value, str):
            value = [p.strip() for p in value.split(",") if p.strip()]
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            return tuple(value)
    elif declared == "bool":
        if isinstance(value, bool):
            return value
        text = str(value).strip().lower()
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off"):
            return False
    elif declared in ("int", "float"):
        kind = int if declared == "int" else float
        try:
            number = kind(value) if isinstance(value, str) else value
            finite = type(number) is int or type(number) is float and math.isfinite(number)
            if finite and kind(number) == number:  # no bool, no rounding, no overflow
                return kind(number)
        except (ValueError, OverflowError):
            pass
    elif value is None:
        return None
    elif isinstance(value, str) and "\0" not in value:
        try:
            os.fsencode(value)  # a lone surrogate cannot name a file
            return value
        except UnicodeEncodeError:
            pass
    raise ConfigError(f"{name}: expected {declared}, got {value!r}")


# ---------------------------------------------------------------------------
# Resource loading
# ---------------------------------------------------------------------------


def _load_dataset(cfg: AppConfig) -> kb.Dataset:
    if cfg.dataset is None:
        raise ConfigError("no dataset path configured (set 'dataset' or COPA_DATASET)")
    return kb.load_dataset(cfg.dataset)


def _build_context(cfg: AppConfig, methods) -> SimilarityContext:
    """The stores the methods' registry entries read, loaded from the
    configured paths; stores no method reads are left out."""
    entries = [evalmod.METHODS[method] for method in methods]
    for method, entry in zip(methods, entries):
        for key in (_STORE_FILES[store][0] for store in entry.needs):
            if getattr(cfg, key) is None:
                raise ConfigError(f"method {method!r} requires the {key!r} path")
    read = {store for entry in entries for store in entry.needs + entry.optional}
    stores = {}
    for store, (key, load) in _STORE_FILES.items():
        if store in read and getattr(cfg, key) is not None:
            stores[store] = load(getattr(cfg, key))
            if store == "wiki":
                stores["tfidf"] = TfIdfModel.from_wiki_corpus(stores["wiki"])
    return SimilarityContext(**stores)


def _query_motion(ds: kb.Dataset, action: str, topic: str) -> kb.Motion:
    """The motion (ACTION, TOPIC) a command is asked about, held to the
    loader's rules for a dataset motion: a known action and a topic whose
    ``name_key`` is not empty (CliDomainError otherwise).  Its id is
    longer than every dataset motion id, so KNN's self-exclusion drops
    none."""
    if action not in ds.actions:
        raise CliDomainError(f"unknown action {action!r}")
    if not name_key(topic):
        raise CliDomainError("empty topic")
    return kb.Motion(id="@" * (1 + max(map(len, ds.motion_ids), default=0)),
                     action=action, topic=topic)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn):
    """Run a command body, mapping exceptions to the documented exit codes."""
    try:
        fn()
    except ConfigError as exc:
        _fail(EXIT_CONFIG, str(exc))
    except CliDomainError as exc:
        _fail(EXIT_DOMAIN, str(exc))
    except (kb.ParseError, kb.ValidationError, DomainError, evalmod.FoldError,
            evalmod.DatasetTooSmall) as exc:
        _fail(EXIT_IO, str(exc))
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; silence the
        # interpreter's shutdown flush and report as an I/O condition
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_IO)
    except OSError as exc:
        _fail(EXIT_IO, str(exc))


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def _finite(ctx, param, value: float) -> float:
    """Option callback: a NaN or infinite number is a usage error (exit 2)."""
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@click.group()
@click.option("--config", "config_path", type=str, default=None, help="Path to the JSON config file.")
@click.option("--exclude-general/--include-general", default=None,
              help="Drop the general CoPAs from statistics and curves.")
@click.pass_context
def main(ctx, config_path, exclude_general):
    """Match debate motions against a taxonomy of recurring arguments."""
    ctx.ensure_object(dict)
    ctx.obj["config_path"] = config_path
    ctx.obj["exclude_general"] = exclude_general


def _config_from_ctx(ctx) -> AppConfig:
    cfg = AppConfig.load(ctx.obj.get("config_path"))
    override = ctx.obj.get("exclude_general")
    if override is not None:
        cfg.exclude_general = override
    return cfg


@main.command()
@click.pass_context
def stats(ctx):
    """Print dataset statistics (sizes, coverage, memberships)."""

    def body():
        cfg = _config_from_ctx(ctx)
        ds = _load_dataset(cfg)
        st = kb.copa_stats(ds, exclude_general=cfg.exclude_general)
        click.echo(f"motions: {len(ds.motions)}")
        click.echo(f"copas: {len(ds.copas)}")
        click.echo(f"labels: {len(ds.labels)}")
        click.echo(f"general_excluded: {cfg.exclude_general}")
        click.echo(f"covered_fraction: {_fmt(st.covered_fraction)}")
        click.echo(f"mean_copas_per_motion: {_fmt(st.mean_copas_per_motion)}")
        click.echo(f"max_copas_per_motion: {st.max_copas_per_motion}")
        for cid in sorted(st.sizes, key=lambda c: (-st.sizes[c], c)):
            click.echo(f"size {cid}: {st.sizes[cid]}")

    _guarded(body)


@main.command()
@click.argument("action")
@click.argument("topic")
@click.option("--method", default="ensemble",
              type=click.Choice(tuple(evalmod.KNOWN_METHODS) + ("ensemble",)),
              help="Scoring method.")
@click.option("--threshold", default=0.0, type=float, callback=_finite,
              help="Minimum score to report.")
@click.pass_context
def match(ctx, action, topic, method, threshold):
    """Rank CoPAs for the motion (ACTION, TOPIC) and show their claims."""

    def body():
        cfg = _config_from_ctx(ctx)
        ds = _load_dataset(cfg)
        query = _query_motion(ds, action, topic)
        methods = cfg.methods if method == "ensemble" else (method,)
        ctx_sim = _build_context(cfg, methods)
        rows = [evalmod.score_motion(m, evalmod.method_inputs(m, ds, cfg, ctx_sim), query,
                                     cfg, ctx_sim) for m in methods]
        combined = clfmod.ensemble(
            [clfmod.ScoreMatrix((query.id,), ds.copa_ids, row[None]) for row in rows])
        # NaN >= threshold is False: abstentions drop out
        ranked = sorted(
            ((cid, s) for cid, s in zip(ds.copa_ids, combined.scores[0].tolist())
             if s >= threshold),
            key=lambda pair: (-pair[1], pair[0]),
        )
        for cid, s in ranked:
            copa = ds.copa(cid)
            click.echo(f"{cid}\t{_fmt(s)}\t{copa.name}")
            for stance in (kb.Stance.PRO, kb.Stance.CON):
                claim = kb.instantiate_claim(copa.claim(stance), query)
                click.echo(f"  {stance.value}: {claim}")

    _guarded(body)


@main.command()
@click.argument("action")
@click.argument("topic")
@click.argument("copa_id")
@click.option("--stance", default="pro", type=click.Choice(["pro", "con"]))
@click.option("--minor", default=None, help="Override the minor premise.")
@click.pass_context
def invent(ctx, action, topic, copa_id, stance, minor):
    """Print a three-line argument for (ACTION, TOPIC) from COPA_ID."""

    def body():
        cfg = _config_from_ctx(ctx)
        ds = _load_dataset(cfg)
        motion = _query_motion(ds, action, topic)
        try:
            copa = ds.copa(copa_id)
        except KeyError:
            raise CliDomainError(f"unknown copa {copa_id!r}") from None
        syllogism = kb.build_syllogism(
            motion, copa, kb.Stance(stance), ds.actions, minor_override=minor
        )
        for line in syllogism.lines():
            click.echo(line)

    _guarded(body)


@main.command()
@click.option("--out", "out_dir", required=True, type=str, help="Output directory.")
@click.pass_context
def eval(ctx, out_dir):
    """Run the leave-one-out protocol and write curve CSVs + summary JSON."""

    def body():
        cfg = _config_from_ctx(ctx)
        ds = _load_dataset(cfg)
        ctx_sim = _build_context(cfg, cfg.methods)
        matrices = evalmod.leave_one_out(ds, cfg, ctx_sim)

        os.makedirs(out_dir, exist_ok=True)
        curves = (
            ("pr", evalmod.pr_curve, ("threshold", "precision", "recall")),
            ("p_at_1", evalmod.p_at_1_curve, ("threshold", "coverage", "p_at_1")),
        )
        for name in cfg.methods + ("ensemble",):
            for prefix, curve, fields in curves:
                points = curve(matrices[name], ds, cfg.exclude_general, cfg.thresholds)
                _write_csv(
                    os.path.join(out_dir, f"{prefix}_{name}.csv"),
                    ("method",) + fields,
                    [[name] + [_fmt(getattr(p, f)) for f in fields] for p in points],
                )
        _write_summary(os.path.join(out_dir, "summary.json"), ds, cfg)
        click.echo(f"wrote evaluation outputs to {out_dir}")

    _guarded(body)


def _stats_dict(st: kb.CopaStats) -> dict:
    return {
        "covered_fraction": st.covered_fraction,
        "mean_copas_per_motion": st.mean_copas_per_motion,
        "max_copas_per_motion": st.max_copas_per_motion,
        "sizes": st.sizes,
        "copa_ids": list(st.copa_ids),
        "overlap": [[float(v) for v in row] for row in st.overlap],
    }


def _write_summary(path: str, ds: kb.Dataset, cfg: AppConfig):
    baseline_all = evalmod.baseline_largest(ds, exclude_general=False)
    summary = {
        "dataset": {
            "motions": len(ds.motions),
            "copas": len(ds.copas),
            "labels": len(ds.labels),
            "general_copas": sorted(ds.general_copa_ids),
        },
        "stats": _stats_dict(kb.copa_stats(ds, exclude_general=False)),
        "stats_excluding_general": _stats_dict(kb.copa_stats(ds, exclude_general=True)),
        "baseline_largest": {
            "copa": baseline_all.copa_id,
            "precision": baseline_all.precision,
        },
        "methods": list(cfg.methods),
    }
    if len(ds.general_copa_ids) < len(ds.copas):
        baseline_ng = evalmod.baseline_largest(ds, exclude_general=True)
        summary["baseline_largest_excluding_general"] = {
            "copa": baseline_ng.copa_id,
            "precision": baseline_ng.precision,
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str | None, header, rows):
    """CSV to ``path`` (stdout when None), a field quoted when it must be."""
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="")) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        fh.flush()  # a closed pipe fails here, inside _guarded


@main.command()
@click.option("--out", "out_file", default=None, type=str,
              help="CSV output path (stdout when omitted).")
@click.pass_context
def features(ctx, out_file):
    """Emit the 17-feature vectors of every (motion, CoPA) pair as CSV."""

    def body():
        cfg = _config_from_ctx(ctx)
        ds = _load_dataset(cfg)
        ctx_sim = _build_context(cfg, ("lr",))  # the lr method's inputs
        header = list(FEATURE_NAMES) + ["motion_id", "copa_id", "label"]
        table = FeatureTable(ds, ctx_sim)
        rows = []
        for m, vectors, labels in zip(ds.motions, table.values, table.labels):
            for c, vector, label in zip(ds.copas, vectors, labels):
                rows.append([_fmt(v) for v in vector] + [m.id, c.id, str(int(label))])
        _write_csv(out_file, header, rows)

    _guarded(body)


if __name__ == "__main__":
    main()
