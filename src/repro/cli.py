"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    Print Table-I style statistics for the built-in benchmarks.
``train``
    Train one model on one benchmark, print Cold/Warm/HM metrics, and
    optionally write it as a checkpoint directory (``--checkpoint``).
``evaluate``
    Rebuild a checkpoint's model from the spec in its manifest and
    re-run the all-ranking evaluation.
``compare``
    Train several models and print the comparison table.
``models``
    List the registered models and their families.
``export-embeddings``
    Snapshot a trained model (from the flags or a checkpoint) into a
    serving ``EmbeddingStore`` — an mmap-able directory of raw arrays.
``serve``
    Answer batched top-k queries from a store, a checkpoint or the
    flags' model — interactive REPL or file-driven — including online
    ``ingest`` of brand-new cold items and hot ``swap`` to a newer
    store.
    ``--daemon`` starts the stdlib-HTTP JSON service instead
    (micro-batched admission queue, atomic snapshot hot-swap via
    ``POST /swap`` to stores in the ``--store`` path's parent directory;
    without ``--store``, ``/swap`` answers 403).
    ``--max-queue`` bounds the admission queue (overflow is shed with
    503 + ``Retry-After``), ``--deadline-ms`` fails queued-too-long
    requests with 504 instead of serving them late, and
    ``--shutdown-grace-s`` bounds the graceful drain on shutdown
    (in-flight batches finish; new requests are rejected and
    ``/healthz`` reports ``draining``).
``run``
    Execute a declarative experiment spec — a named preset or a JSON
    spec file — through the resumable, content-addressed experiment
    pipeline: built dataset, trained checkpoints and evaluation
    results are cached in the artifact store (``REPRO_ARTIFACTS``,
    default ``.artifacts``), a killed run resumes bit-exactly from the
    training stage's snapshot, and ``--stop-after`` halts after a
    stage (the CI pipeline smoke interrupts after ``train`` and
    asserts the resumed result fingerprint matches a cold run).
    ``REPRO_BENCH_EPOCHS`` / ``REPRO_BENCH_SIZE`` (or ``--epochs`` /
    ``--size``, which take precedence) override the spec.
``experiments``
    List the named experiment presets, the registered scenario
    transforms, and the artifact store's cached stage counts.
``bench``
    Four benchmarks, one subcommand each, each accepting only the flags
    it reads; repeated measurements run in interleaved rounds with the
    starting mode rotated per round. ``bench train``: training
    throughput (epochs/second) per model through the frozen-graph
    engine (``--min-throughput`` is its CI floor). ``bench sparse``:
    the row-sparse gradient pipeline vs the dense schedule on the
    catalog-dominated synthetic fixture (``--min-sparse-speedup``).
    Both take ``--breakdown`` for the per-phase
    (sample/forward/backward/clip/step/extra) training-step cost of any
    model, sparse and dense columns. ``bench serving``: p50/p99
    client-observed latency and throughput of the micro-batched
    admission queue vs sequential single-user queries on a
    catalog-scale synthetic store, also with items ingested beside the
    queries (``--min-serving-speedup``). ``bench scaling``: build
    throughput and peak RSS vs catalog size, in-RAM reference vs
    streamed block-at-a-time build (one subprocess probe per point,
    with a hard fingerprint-parity gate), then serving p50/p99 on a
    million-item store (``--serving-scale`` shrinks it);
    ``--scaling-out`` records the combined tables as the Table-VII
    scaling addendum.

``train``, ``compare``, ``export-embeddings`` and ``serve`` (without
``--store``) turn their flags into an experiment spec and train through
the runner ``run`` uses, so trained models and metrics are cached in
the same artifact store and a killed training resumes from its
snapshot. A checkpoint (``--checkpoint``) is an array directory whose
manifest records the model and the spec that built it; ``evaluate`` and
``--checkpoint`` rebuild the model from that spec. A ``.npz`` archive of
an older release is a usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baselines import available_models, model_family
from .baselines.registry import EXTRA_MODELS
from .data import load_amazon, load_weixin
from .eval import evaluate_model
from .experiments import ExperimentSpec, Runner, comparison_rows
from .experiments.runner import save_trained
from .serve import EmbeddingStore, ServingSession
from .train import TrainConfig
from .utils.tables import format_table, scenario_rows

DATASETS = ("beauty", "cell_phones", "clothing", "weixin")


def _load_dataset(name: str, size: str):
    if name == "weixin":
        return load_weixin(size=size)
    return load_amazon(name, size=size)


def _positive(convert):
    """An argparse ``type`` that parses with ``convert`` and rejects
    values that are not positive."""
    def parse(text: str):
        value = convert(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(
                f"must be positive, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid int value"
    return parse


_positive_int = _positive(int)
_positive_float = _positive(float)


def _checkpoint_dir(text: str) -> str:
    """An argparse ``type`` for checkpoint paths: a checkpoint is an
    array directory, so a ``.npz`` archive is refused before anything
    is built or trained."""
    if Path(text).suffix == ".npz":
        raise argparse.ArgumentTypeError(
            f"{text!r} is a .npz archive, but a checkpoint is an array "
            "directory (manifest.json plus one .npy per array): drop the "
            "suffix; an archive of an older release must be retrained")
    return text


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=DATASETS, default="beauty")
    parser.add_argument("--size",
                        choices=("tiny", "small", "medium", "large",
                                 "xlarge"),
                        default="small")
    _add_training(parser)


def _add_training(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epochs", type=_positive_int, default=12)
    parser.add_argument("--embedding-dim", type=_positive_int, default=32)
    parser.add_argument("--learning-rate", type=_positive_float, default=0.05)
    parser.add_argument("--batch-size", type=_positive_int, default=512)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=_positive_int, default=20)


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        eval_every=max(args.epochs // 4, 1),
        eval_k=args.k,
        seed=args.seed,
    )


def cmd_datasets(args) -> int:
    rows = [_load_dataset(name, args.size).statistics().as_row()
            for name in DATASETS]
    print(format_table(rows, title="Benchmark statistics (Table I)"))
    return 0


def cmd_models(args) -> int:
    rows = [{"Model": name, "Family": model_family(name)}
            for name in available_models()]
    rows += [{"Model": name, "Family": model_family(name)}
             for name in sorted(EXTRA_MODELS)]
    print(format_table(rows, title="Registered models"))
    return 0


def _spec(args, models) -> ExperimentSpec:
    """The experiment the training flags describe."""
    return ExperimentSpec(name="cli", dataset=args.dataset, size=args.size,
                          models=tuple(models), train=_train_config(args),
                          embedding_dim=args.embedding_dim, seed=args.seed,
                          eval_k=args.k)


def cmd_train(args) -> int:
    runner, spec = Runner(), _spec(args, [args.model])
    model, result = runner.trained(spec, args.model)
    # Millisecond precision: a model read from the artifact store prints
    # its recorded time, so a rerun that retrained shows up in a diff.
    print(f"trained {result.epochs_run} epochs "
          f"in {result.train_seconds:.3f}s")
    print(format_table(comparison_rows(runner, spec),
                       title=f"{args.model} on {runner.dataset(spec).name}"))
    if args.checkpoint:
        save_trained(args.checkpoint, model, spec, args.model)
        print(f"checkpoint written to {args.checkpoint}")
    return 0


def cmd_evaluate(args) -> int:
    runner = Runner()
    spec, name, model = runner.checkpointed(args.checkpoint)
    scenario = evaluate_model(model, runner.dataset(spec).split,
                              k=args.k or spec.eval_k)
    print(format_table(scenario_rows(name, model_family(name), scenario),
                       title=f"{name} (from {args.checkpoint})"))
    return 0


def cmd_compare(args) -> int:
    runner, spec = Runner(), _spec(args, args.models)
    print(format_table(comparison_rows(runner, spec),
                       title=f"Comparison on {runner.dataset(spec).name}"))
    return 0


def _trained_model(args):
    """A trained model, its dataset and its spec — rebuilt from
    ``--checkpoint``, or the runner's for the flags (shared by
    ``export-embeddings`` and ``serve``)."""
    runner = Runner()
    if args.checkpoint:
        spec, _, model = runner.checkpointed(args.checkpoint)
    else:
        spec = _spec(args, [args.model])
        model, _ = runner.trained(spec, args.model)
    return model, runner.dataset(spec), spec


def cmd_export_embeddings(args) -> int:
    model, dataset, spec = _trained_model(args)
    store = EmbeddingStore.from_model(model, dataset,
                                      metadata={"seed": spec.seed})
    written = store.save(args.out)
    print(format_table([store.describe()], title="Exported store"))
    print(f"store written to {written}")
    return 0


def _repl_lines():
    while True:
        try:
            yield input("serve> ")
        except EOFError:
            return


def cmd_serve(args) -> int:
    if args.mmap and not args.store:
        print("--mmap only applies with --store",
              file=sys.stderr)
        return 2
    if args.store:
        store = EmbeddingStore.load(args.store, mmap=args.mmap)
    else:
        model, dataset, _ = _trained_model(args)
        store = EmbeddingStore.from_model(model, dataset)
    if args.daemon:
        from .serve import ServingDaemon, SnapshotManager
        manager = SnapshotManager(store, block_size=args.block_size)
        daemon = ServingDaemon(manager, host=args.host, port=args.port,
                               max_batch=args.max_batch,
                               max_queue=args.max_queue,
                               deadline_ms=args.deadline_ms,
                               shutdown_grace_s=args.shutdown_grace_s,
                               swap_root=(Path(args.store).resolve().parent
                                          if args.store else None))
        print(f"serving on {daemon.url} "
              "(GET /topk /cold /stats /healthz; POST /ingest /swap)",
              file=sys.stderr)
        try:
            daemon.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            daemon.shutdown()
        return 0
    session = ServingSession(store, default_k=args.k,
                             block_size=args.block_size)
    if args.queries:
        with open(args.queries) as handle:
            lines = handle.readlines()
    else:
        print("serving; type 'help' for commands, 'quit' to exit",
              file=sys.stderr)
        lines = _repl_lines()
    for line in lines:
        output = session.execute(line)
        if output is None:
            break
        if output:
            print(output)
    return 0


def _floor_status(flag: str, floor: float | None, value: float,
                  what: str) -> int:
    """Exit status of a ``--min-*`` floor: 1, with a FAIL line, when
    ``value`` is below ``floor``."""
    if floor is None or value >= floor:
        return 0
    print(f"FAIL: {what} is {value:.2f}, below the {flag} floor of "
          f"{floor}", file=sys.stderr)
    return 1


def _serving_floor_status(rows, floor: float | None) -> int:
    (row,) = [row for row in rows if row.scenario == "topk under load"]
    return _floor_status("--min-serving-speedup", floor, row.speedup,
                         "micro-batched serving's speedup over sequential "
                         "single-user queries")


def _print_breakdowns(args, dataset) -> None:
    """``--breakdown``: per-phase training-step cost of each model."""
    if not args.breakdown:
        return
    from .analysis.timing import breakdown_rows, measure_step_breakdown
    for name in args.models:
        print(format_table(
            breakdown_rows(measure_step_breakdown(
                dataset, name, epochs=min(args.epochs, 4),
                batch_size=args.batch_size,
                learning_rate=args.learning_rate,
                embedding_dim=args.embedding_dim, seed=args.seed)),
            title=f"{name}: per-phase training-step cost"))


def cmd_bench_train(args) -> int:
    from .analysis.timing import measure_training_throughput
    dataset = _load_dataset(args.dataset, args.size)
    rows = measure_training_throughput(
        dataset, model_names=tuple(args.models), epochs=args.epochs,
        seed=args.seed, train_config=_train_config(args),
        embedding_dim=args.embedding_dim)
    print(format_table([row.as_row() for row in rows],
                       title=f"Training throughput on {dataset.name}"))
    _print_breakdowns(args, dataset)
    slowest = min(rows, key=lambda row: row.epochs_per_second)
    return _floor_status("--min-throughput", args.min_throughput,
                         slowest.epochs_per_second,
                         f"{slowest.model}'s epochs/s")


def cmd_bench_sparse(args) -> int:
    from .analysis.timing import (catalog_dominated_dataset,
                                  measure_sparse_training_throughput)
    dataset = catalog_dominated_dataset(scale=args.fixture_scale,
                                        seed=args.seed)
    rows = measure_sparse_training_throughput(
        dataset, model_names=tuple(args.models), epochs=args.epochs,
        seed=args.seed, train_config=_train_config(args),
        embedding_dim=args.embedding_dim)
    print(format_table(
        [row.as_row() for row in rows],
        title="Row-sparse gradient pipeline vs dense schedule "
              f"on {dataset.name}"))
    _print_breakdowns(args, dataset)
    worst = min(rows, key=lambda row: row.speedup)
    return _floor_status("--min-sparse-speedup", args.min_sparse_speedup,
                         worst.speedup,
                         f"{worst.model}'s sparse/dense speedup")


def cmd_bench_serving(args) -> int:
    from .analysis.timing import (measure_serving_latency,
                                  synthetic_serving_store)
    store = synthetic_serving_store(
        num_users=max(int(2000 * args.serving_scale), 64),
        num_items=max(int(24000 * args.serving_scale), 256),
        seed=args.seed)
    rows = measure_serving_latency(store, clients=args.clients,
                                   seed=args.seed)
    print(format_table(
        [row.as_row() for row in rows],
        title=f"Serving latency under load "
              f"({store.num_items}-item synthetic catalog, "
              "micro-batched vs sequential)"))
    return _serving_floor_status(rows, args.min_serving_speedup)


def cmd_bench_scaling(args) -> int:
    """``bench scaling``: build cost vs catalog size, then serving
    latency on a million-item store — the recorded Table-VII scaling
    addendum."""
    from .analysis.timing import (measure_build_scaling,
                                  measure_serving_latency,
                                  synthetic_serving_store)
    sizes = tuple(args.scaling_sizes)
    build_rows = measure_build_scaling(sizes=sizes, seed=args.seed)
    build_table = format_table(
        [row.as_row() for row in build_rows],
        title="Build scaling: wall-clock and peak RSS vs catalog size "
              "(in-RAM reference vs streamed)")
    print(build_table)
    # Always-on parity gate: the streamed build must be bit-identical
    # to the in-RAM reference at every measured size.
    for size in sizes:
        fingerprints = {row.mode: row.fingerprint
                        for row in build_rows if row.size == size}
        if len(set(fingerprints.values())) > 1:
            print(f"FAIL: streamed build at size {size!r} is not "
                  f"bit-identical to the in-RAM reference "
                  f"(fingerprints {fingerprints})", file=sys.stderr)
            return 1
    store = synthetic_serving_store(
        num_users=max(int(4000 * args.serving_scale), 64),
        num_items=max(int(1_000_000 * args.serving_scale), 512),
        seed=args.seed)
    # One round, no ingest scenario: at this catalog size every request
    # is a long GEMM, so repetition buys little.
    serving_rows = measure_serving_latency(
        store, clients=args.clients, requests_per_client=8, repeats=1,
        measure_ingest=False, seed=args.seed)
    serving_table = format_table(
        [row.as_row() for row in serving_rows],
        title=f"Serving latency ({store.num_items}-item synthetic store)")
    print(serving_table)
    if _serving_floor_status(serving_rows, args.min_serving_speedup):
        return 1
    if args.scaling_out:
        from .eval.reporting import write_text_result
        written = write_text_result(
            args.scaling_out, build_table + "\n\n" + serving_table)
        print(f"scaling addendum written to {written}")
    return 0


def _resolve_spec(name_or_path: str):
    from .experiments import ExperimentSpec, get_preset
    from .experiments.presets import PRESETS
    if name_or_path in PRESETS:
        return get_preset(name_or_path)
    path = Path(name_or_path)
    if path.exists():
        return ExperimentSpec.load(path)
    raise SystemExit(f"unknown experiment {name_or_path!r}: not a "
                     f"preset ({', '.join(sorted(PRESETS))}) and not a "
                     f"spec file")


def _run_env_overrides(args) -> tuple[int | None, str | None]:
    from .experiments.presets import bench_env_epochs, bench_env_size
    epochs, size = args.epochs, args.size
    try:
        if epochs is None:
            epochs = bench_env_epochs()
        if size is None:
            size = bench_env_size()
    except ValueError as exc:
        args.usage_error(str(exc))
    return epochs, size


def cmd_run(args) -> int:
    from .baselines import model_family
    from .experiments import (ArtifactStore, Runner, comparison_rows,
                              expand_sweep)
    from .experiments.spec import content_key
    spec = _resolve_spec(args.spec)
    epochs, size = _run_env_overrides(args)
    spec = spec.with_overrides(epochs=epochs, size=size)
    store = ArtifactStore(args.store) if args.store else None
    runner = Runner(store, refresh=args.force)

    if spec.sweep:
        param, _ = spec.sweep
        rows = []
        fingerprints = {}
        for value, child in expand_sweep(spec):
            run = runner.run(child, stop_after=args.stop_after)
            if args.stop_after:
                continue
            fingerprints[str(value)] = run.fingerprint
            for name in child.models:
                metrics = run.results[name]
                if "cold" in metrics and "warm" in metrics:
                    result = run.scenario(name)
                    rows.append({
                        param: value, "Method": name,
                        "Cold R@20": round(100 * result.cold.recall, 2),
                        "Cold M@20": round(100 * result.cold.mrr, 2),
                        "Warm R@20": round(100 * result.warm.recall, 2),
                        "HM M@20": round(100 * result.hm.mrr, 2),
                    })
                else:  # non-standard eval scenario: one row per result
                    for scenario_name, metric in metrics.items():
                        row = {param: value, "Method": name,
                               "Scenario": scenario_name}
                        row.update(metric.as_percent_row())
                        rows.append(row)
        if args.stop_after:
            print(f"stopped after the {args.stop_after} stage; artifacts "
                  f"are in {runner.store.root}")
            return 0
        print(format_table(rows, title=f"{spec.name}: {param} sweep"))
        fingerprint = content_key(fingerprints)
    else:
        run = runner.run(spec, stop_after=args.stop_after)
        if args.stop_after:
            print(f"stopped after the {args.stop_after} stage; artifacts "
                  f"are in {runner.store.root}")
            return 0
        standard = [m for m in spec.models
                    if "cold" in run.results[m] and "warm" in run.results[m]]
        if standard:
            print(format_table(comparison_rows(runner, spec, standard),
                               title=spec.name))
        for name in spec.models:
            if name in standard:
                continue
            rows = []
            for scenario_name, metric in run.results[name].items():
                row = {"Scenario": scenario_name, "Method": name,
                       "Type": model_family(name)}
                row.update(metric.as_percent_row())
                rows.append(row)
            print(format_table(rows, title=f"{spec.name}: {name}"))
        fingerprint = run.fingerprint
    print(f"result fingerprint: {fingerprint}")
    if args.fingerprint_out:
        Path(args.fingerprint_out).write_text(fingerprint + "\n")
    return 0


def cmd_experiments(args) -> int:
    from .experiments import (ArtifactStore, available_presets,
                              available_scenarios, default_store)
    store = ArtifactStore(args.store) if args.store else default_store()
    if args.action == "list":
        rows = [{
            "Name": name,
            "Dataset": f"{spec.dataset}/{spec.size}",
            "Models": len(spec.models),
            "Epochs": spec.train.epochs,
            "Scenarios": ", ".join(s.name for s in spec.scenarios) or "-",
            "Description": spec.description,
        } for name, spec in sorted(available_presets().items())]
        print(format_table(rows, title="Experiment presets"))
        counts = {stage: len(store.entries(stage))
                  for stage in ("dataset", "train", "eval")}
        print(f"\nartifact store {store.root}: "
              + ", ".join(f"{n} {stage}" for stage, n in counts.items()))
    else:  # scenarios
        rows = [{
            "Scenario": s.name,
            "Stage": s.stage,
            "Description": s.description,
        } for s in sorted(available_scenarios().values(),
                          key=lambda s: (s.stage, s.name))]
        print(format_table(rows, title="Registered scenario transforms"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Firzen reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    p_datasets = sub.add_parser("datasets", help="benchmark statistics")
    p_datasets.add_argument("--size", default="small",
                            choices=("tiny", "small", "medium", "large",
                                     "xlarge"))
    p_datasets.set_defaults(func=cmd_datasets)

    p_models = sub.add_parser("models", help="list registered models")
    p_models.set_defaults(func=cmd_models)

    p_train = sub.add_parser("train", help="train one model")
    p_train.add_argument("model")
    p_train.add_argument("--checkpoint", type=_checkpoint_dir, default=None,
                         help="also write the trained model as a "
                              "checkpoint directory")
    _add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint")
    p_eval.add_argument("checkpoint", type=_checkpoint_dir,
                        help="checkpoint directory (from train "
                             "--checkpoint, or a train artifact's model/)")
    p_eval.add_argument("--k", type=_positive_int, default=None,
                        help="ranking cutoff (default: the checkpoint "
                             "spec's)")
    p_eval.set_defaults(func=cmd_evaluate)

    p_compare = sub.add_parser("compare", help="compare several models")
    p_compare.add_argument("models", nargs="+")
    _add_common(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_export = sub.add_parser(
        "export-embeddings",
        help="snapshot a trained model into a serving store")
    p_export.add_argument("out", help="output store directory")
    p_export.add_argument("--checkpoint", type=_checkpoint_dir,
                          default=None,
                          help="export this checkpoint directory instead "
                               "of the flags' model")
    p_export.add_argument("--model", default="Firzen")
    _add_common(p_export)
    p_export.set_defaults(func=cmd_export_embeddings)

    p_serve = sub.add_parser(
        "serve", help="batched top-k serving with online item onboarding")
    source = p_serve.add_mutually_exclusive_group()
    source.add_argument("--store", default=None,
                        help="load an exported EmbeddingStore directory")
    source.add_argument("--checkpoint", type=_checkpoint_dir, default=None,
                        help="serve this checkpoint directory instead")
    p_serve.add_argument("--model", default="Firzen")
    p_serve.add_argument("--queries", default=None,
                         help="file with one query per line "
                              "(default: interactive REPL)")
    p_serve.add_argument("--block-size", type=_positive_int, default=1024)
    p_serve.add_argument("--mmap", action="store_true",
                         help="memory-map the --store directory "
                              "(zero-copy load)")
    p_serve.add_argument("--daemon", action="store_true",
                         help="serve HTTP JSON endpoints with "
                              "micro-batching instead of the REPL")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8099,
                         help="daemon port (0 binds an ephemeral port)")
    p_serve.add_argument("--max-batch", type=_positive_int, default=64,
                         help="daemon: max requests coalesced into one "
                              "blocked topk call")
    p_serve.add_argument("--max-queue", type=_positive_int, default=1024,
                         help="daemon: admission-queue bound; overflow "
                              "is shed with 503 + Retry-After")
    p_serve.add_argument("--deadline-ms", type=_positive_float,
                         default=None,
                         help="daemon: per-request deadline; requests "
                              "queued past it get 504 instead of a "
                              "late answer")
    p_serve.add_argument("--shutdown-grace-s", type=float, default=5.0,
                         help="daemon: grace period for draining "
                              "in-flight requests on shutdown")
    _add_common(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_run = sub.add_parser(
        "run", help="execute a declarative experiment spec through the "
                    "resumable artifact-store pipeline")
    p_run.add_argument("spec", help="preset name (see 'experiments "
                                    "list') or path to a JSON spec file")
    p_run.add_argument("--epochs", type=_positive_int, default=None,
                       help="override the spec's training epochs "
                            "(default: REPRO_BENCH_EPOCHS or the spec)")
    p_run.add_argument("--size", default=None,
                       choices=("tiny", "small", "medium", "large",
                                "xlarge"),
                       help="override the spec's dataset size preset "
                            "(default: REPRO_BENCH_SIZE or the spec)")
    p_run.add_argument("--store", default=None,
                       help="artifact store root (default: "
                            "REPRO_ARTIFACTS or .artifacts)")
    p_run.add_argument("--force", action="store_true",
                       help="ignore (and overwrite) existing artifacts")
    p_run.add_argument("--stop-after", default=None,
                       choices=("dataset", "train"),
                       help="halt after this stage; a later run resumes "
                            "from the stored artifacts")
    p_run.add_argument("--fingerprint-out", default=None,
                       help="also write the result fingerprint to this "
                            "file (the CI parity gate compares two runs)")
    p_run.set_defaults(func=cmd_run, usage_error=p_run.error)

    p_experiments = sub.add_parser(
        "experiments", help="list experiment presets, scenario "
                            "transforms, and artifact-store status")
    p_experiments.add_argument("action", nargs="?", default="list",
                               choices=("list", "scenarios"))
    p_experiments.add_argument("--store", default=None,
                               help="artifact store root to report on")
    p_experiments.set_defaults(func=cmd_experiments)

    p_bench = sub.add_parser(
        "bench", help="training, sparse-gradient, serving and scaling "
                      "benchmarks")
    bench = p_bench.add_subparsers(dest="benchmark", required=True)
    b_train = bench.add_parser(
        "train", help="training epochs/second per model")
    b_sparse = bench.add_parser(
        "sparse", help="row-sparse gradient pipeline vs the dense "
                       "schedule on the catalog-dominated fixture")
    b_serving = bench.add_parser(
        "serving", help="micro-batched vs sequential serving latency on "
                        "a catalog-scale synthetic store")
    b_scaling = bench.add_parser(
        "scaling", help="build cost vs catalog size, in-RAM reference "
                        "vs streamed, then serving latency on a "
                        "million-item store")
    for b, func in ((b_train, cmd_bench_train),
                    (b_sparse, cmd_bench_sparse),
                    (b_serving, cmd_bench_serving),
                    (b_scaling, cmd_bench_scaling)):
        b.set_defaults(func=func)
    for b in (b_train, b_sparse):
        b.add_argument("--models", nargs="+",
                       default=["LightGCN", "KGAT", "Firzen"])
        b.add_argument("--breakdown", action="store_true",
                       help="also print the per-phase "
                            "(sample/forward/backward/clip/step) "
                            "training-step cost, sparse vs dense")
    b_train.add_argument("--min-throughput", type=float, default=None,
                         help="exit nonzero when any model trains slower "
                              "than this many epochs/second")
    _add_common(b_train)
    b_sparse.add_argument("--min-sparse-speedup", type=float, default=None,
                          help="exit nonzero when the sparse/dense "
                               "epochs-per-second ratio falls below this "
                               "floor")
    b_sparse.add_argument("--fixture-scale", type=_positive_float,
                          default=1.0,
                          help="size multiplier for the fixture (smaller "
                               "is faster; CI uses 0.5)")
    _add_training(b_sparse)
    b_scaling.add_argument("--scaling-sizes", nargs="+",
                           default=["tiny", "small"],
                           help="scale size presets to measure")
    b_scaling.add_argument("--scaling-out", default=None,
                           help="also write the combined tables to this "
                                "file (the recorded Table-VII scaling "
                                "addendum)")
    for b, clients in ((b_serving, 8), (b_scaling, 4)):
        b.add_argument("--serving-scale", type=_positive_float,
                       default=1.0,
                       help="size multiplier for the synthetic catalog")
        b.add_argument("--clients", type=_positive_int, default=clients,
                       help="concurrent client threads")
        b.add_argument("--min-serving-speedup", type=float, default=None,
                       help="exit nonzero when micro-batched throughput "
                            "falls below this multiple of the sequential "
                            "baseline")
        b.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
