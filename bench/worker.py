"""One workload in one process: set-up timing, the timed `copa` commands
and, with ``--trace 1``, the traced commands.

Started by ``run.py`` inside the workload directory that ``generate.py``
wrote.  It drives the click CLI in-process and writes a JSON report:
timings scaled by the host-speed probe, peak RSS, a digest of every
command's output, the score
matrices of the first ``copa eval`` (read through ``ScoreMatrix.get``)
and, when traced, the per-layer metrics.  Output checks are made by
``run.py`` from that report, apart from the code under test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from copa import classifiers, cli, evaluation, features, kb, textsim  # noqa: E402

from trace import Tracer  # noqa: E402

MODULES = {
    "kb": kb, "textsim": textsim, "features": features,
    "classifiers": classifiers, "evaluation": evaluation, "cli": cli,
}
# Set-up samples taken before the first command and again after each
# command.  The host's speed shifts every few seconds, so samples spread
# over the run see the same states the commands do; bunched together they
# see one.
SETUP_SAMPLES = 4
# The reference machine is shared.  Its speed for this kind of code flips
# between two levels about 1.6x apart within seconds, and the share of
# slow time drifts over minutes; steal time stays 0, so nothing in the
# guest shows it.  A fixed computation that does not touch copa
# (``probe.py``) is therefore timed right after each set-up sample, and
# set-up and command times are reported in seconds at the probe's
# reference speed: wall time x PROBE_REF_S / probe time around it.
# PROBE_REF_S is the median of 1140 probe samples on the reference
# machine.
PROBE_REF_S = 0.044


def time_setup(config: dict) -> float:
    """Wall time of the program's loaders reading the workload's files."""
    start = time.perf_counter()
    kb.load_dataset(config["dataset"])
    textsim.EmbeddingStore.from_file(config["embeddings"])
    textsim.EmbeddingStore.from_file(config["alt_embeddings"])
    wiki = textsim.WikiCorpus.from_file(config["wiki_corpus"])
    textsim.TfIdfModel.from_wiki_corpus(wiki)
    classifiers.TopicSentenceCorpus.from_jsonl(config["sentence_corpus"])
    return time.perf_counter() - start


class Probe:
    """The host-speed probe (``probe.py``) in a child process.  The worker
    is pinned to one CPU first and the child inherits that, so the probe
    sees the state of the CPU that runs the commands."""

    def __init__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


class Capture:
    """Keeps the first result of ``evaluation.leave_one_out``, wrapped
    where ``cli`` looks it up."""

    def __init__(self):
        self.matrices = None
        self._original = evaluation.leave_one_out

    def __enter__(self):
        def capture(*args, **kwargs):
            result = self._original(*args, **kwargs)
            if self.matrices is None:
                self.matrices = result
            return result

        evaluation.leave_one_out = capture
        return self

    def __exit__(self, *exc):
        evaluation.leave_one_out = self._original

    def dense(self) -> dict:
        """{method: {motion_ids, copa_ids, scores}} with None for abstain."""
        return {
            name: {
                "motion_ids": list(m.motion_ids),
                "copa_ids": list(m.copa_ids),
                "scores": [[m.get(mid, cid) for cid in m.copa_ids] for mid in m.motion_ids],
            }
            for name, m in self.matrices.items()
        }


def run_command(argv: list[str]) -> tuple[float, int, str]:
    """(wall seconds, exit code, captured stdout) of one in-process command.
    An uncaught exception counts as exit code 1, as it would for ``copa``;
    its traceback goes to stderr and the run goes on."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            cli.main(argv, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return time.perf_counter() - start, code, out.getvalue()


def digest_dir(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


class Commands:
    """The workload's operations, in a fixed order that repeats."""

    def __init__(self, workload: str, queries: list, config: dict, probe: Probe):
        self.workload = workload
        self.probe = probe
        self.queries = queries
        self.config = config
        self.setup_samples = []
        self.probe_samples = []  # one after each set-up sample
        self.marks = []  # per command: probe samples taken before it
        self.count = 0
        self.records = []  # {"label", "seconds", "code", "digest"}
        self.eval_outputs = None  # file contents of the first eval
        self.match_outputs = {}  # query index -> stdout of its first run

    def round_size(self) -> int:
        return len(self.queries) if self.workload == "match-cold" else 1

    def run(self, index_in_round: int) -> dict:
        n = self.count
        self.count += 1
        self.marks.append(len(self.probe_samples))
        if self.workload == "match-cold":
            action, topic = self.queries[index_in_round]
            seconds, code, text = run_command(["--config", "config.json", "match", action, topic])
            digest = hashlib.sha256(text.encode()).hexdigest()
            self.match_outputs.setdefault(index_in_round, text)
        else:
            out_dir = os.path.join("out", str(n))
            seconds, code, _ = run_command(["--config", "config.json", "eval", "--out", out_dir])
            digest = digest_dir(out_dir) if code == 0 else None
            if self.eval_outputs is None and code == 0:
                self.eval_outputs = {}
                for name in sorted(os.listdir(out_dir)):
                    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                        self.eval_outputs[name] = fh.read()
        record = {"label": index_in_round, "seconds": seconds, "code": code, "digest": digest}
        self.records.append(record)
        return record

    def sample_setup(self):
        """SETUP_SAMPLES more set-up samples, each followed by a probe
        sample."""
        for _ in range(SETUP_SAMPLES):
            self.setup_samples.append(time_setup(self.config))
            self.probe_samples.append(self.probe.sample())

    def scaled(self) -> tuple[float, float | None]:
        """(median set-up time, median time of the commands that
        succeeded) in seconds at PROBE_REF_S.  A set-up sample is scaled
        by the probe sample taken right after it; a command by the median
        of the probe samples taken just before and just after it."""
        probes = self.probe_samples
        setup = statistics.median(s / p for s, p in zip(self.setup_samples, probes))
        ok = [
            r["seconds"] / statistics.median(probes[mark - SETUP_SAMPLES:mark + SETUP_SAMPLES])
            for r, mark in zip(self.records, self.marks) if r["code"] == 0
        ]
        return setup * PROBE_REF_S, statistics.median(ok) * PROBE_REF_S if ok else None


def run_rounds(commands: Commands, seconds: float):
    """Whole rounds until the next one would end after ``seconds``; at
    least one round."""
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i in range(commands.round_size()):
            commands.run(i)
            commands.sample_setup()
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return


def traced_commands(commands: Commands, capture: Capture, args) -> tuple[dict, list]:
    """One untraced command, then whole traced rounds, as ``run_rounds``
    runs them, until the next round would end after ``args.seconds``.
    Writes the spans to ``args.spans``; returns (per-layer metrics,
    absent names)."""
    reference = commands.run(0)
    commands.sample_setup()
    tracer = Tracer(MODULES)
    tracer.install()
    traced = []
    start = time.perf_counter()
    tracer.enabled = True
    try:
        while True:
            round_start = time.perf_counter()
            for i in range(commands.round_size()):
                traced.append(commands.run(i))
                tracer.end_command()
                tracer.enabled = False
                commands.sample_setup()
                tracer.enabled = True
            now = time.perf_counter()
            if reference["seconds"] + (now - start) + (now - round_start) > args.seconds:
                break
    finally:
        tracer.enabled = False
        tracer.uninstall()
    folds = len(capture.matrices["ensemble"].motion_ids) if capture.matrices else 0
    layers = tracer.layer_metrics(len(traced), float(folds))
    layers["trace.wall_s"] = statistics.mean(r["seconds"] for r in traced)
    same = [r["seconds"] for r in traced if r["label"] == reference["label"]]
    layers["trace.overhead_s"] = statistics.mean(same) - reference["seconds"]
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"absent": tracer.absent, "spans": tracer.spans}, fh)
    return layers, tracer.absent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    with open("config.json", encoding="utf-8") as fh:
        config = json.load(fh)
    with open("manifest.json", encoding="utf-8") as fh:
        queries = json.load(fh)["queries"]

    probe = Probe()
    try:
        commands = Commands(args.workload, queries, config, probe)
        commands.sample_setup()
        report = {}
        with Capture() as capture:
            if args.trace:
                report["layers"], report["absent"] = traced_commands(commands, capture, args)
            else:
                run_rounds(commands, args.seconds)
    finally:
        probe.close()
    report["setup_s"], report["command_p50_s"] = commands.scaled()
    report["wall"] = {
        "setup_s": statistics.median(commands.setup_samples),
        "probe_s": statistics.median(commands.probe_samples),
        "probe_ref_s": PROBE_REF_S,
    }
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["commands"] = commands.records
    report["eval_outputs"] = commands.eval_outputs
    report["match_outputs"] = {str(k): v for k, v in commands.match_outputs.items()}
    report["matrices"] = capture.dense() if capture.matrices is not None else None
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
