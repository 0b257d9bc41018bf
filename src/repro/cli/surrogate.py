"""``surrogate`` and ``predict``: train the learned IPC surrogate on
cached results, and score config grids with it
(:mod:`repro.analysis.surrogate`)."""

from __future__ import annotations

import os
import random

from repro.analysis.report import percent, render_table
from repro.cli import (_add_cache_dir, _add_engine, _add_grid_axes,
                       _add_workload_input, _fail, _grid_axes,
                       _make_engine, _store, _warn_abandoned)
from repro.simulator.simulation import ALL_TECHNIQUES


def add_surrogate(sub) -> None:
    surrogate = sub.add_parser(
        "surrogate",
        help="train the learned IPC surrogate on cached sweep results "
             "(surrogate train)",
        description="Harvest every cached kind='sim' result in the store "
                    "into (job spec, measured IPC) training pairs, fit the "
                    "seeded surrogate regressor (repro.analysis.surrogate), "
                    "evaluate it differentially on a held-out split, and "
                    "write the model artifact as JSON.  The artifact "
                    "round-trips byte-stably and its content digest is "
                    "folded into 'repro predict' cache keys.")
    surrogate.add_argument("action", choices=("train",))
    surrogate.add_argument("--out", default="surrogate.json", metavar="FILE",
                           help="model artifact path (default: "
                                "surrogate.json)")
    _add_cache_dir(surrogate)
    _add_grid_axes(surrogate, unset="all cached")
    surrogate.add_argument("--seed", type=int, default=0,
                           help="training seed: same seed + same "
                                "harvest = bit-identical artifact "
                                "(default: 0)")
    surrogate.add_argument("--kind", default="auto",
                           choices=("auto", "gbm", "ridge"),
                           help="regressor family (default: auto — "
                                "gbm, or ridge for tiny harvests)")
    surrogate.add_argument("--members", type=int, default=5, metavar="K",
                           help="bootstrap ensemble size; disagreement "
                                "drives confidence (default: 5)")
    surrogate.add_argument("--estimators", type=int, default=250,
                           metavar="N", help="boosted trees per gbm member "
                           "(default: 250)")
    surrogate.add_argument("--holdout", type=float, default=0.25,
                           metavar="F", help="held-out fraction for the "
                           "differential error report (default: 0.25)")
    surrogate.add_argument("--trace", default=None, metavar="DIR",
                           help="fold per-workload episode-trace "
                                "statistics from DIR into the features")
    surrogate.add_argument("--max-error", type=float, default=None,
                           metavar="F",
                           help="exit nonzero when held-out mean "
                                "relative |IPC error| exceeds F")
    surrogate.set_defaults(handler=cmd_surrogate)


def cmd_surrogate(args) -> int:
    from repro.analysis.surrogate import (SurrogateModel, evaluate,
                                          harvest, split)

    store = _store(args)
    points = harvest(store, *_grid_axes(args))
    if len(points) < 2:
        return _fail(f"found {len(points)} usable sim results in "
                     f"{store.root}; the surrogate trains on cached "
                     f"results — run a sweep first (e.g. 'repro sweep "
                     f"--scale tiny')")

    profiles = None
    if args.trace:
        from repro.obs import trace_statistics
        profiles = {}
        for workload in sorted({p.workload for p in points}):
            stats = trace_statistics(args.trace, workload)
            if stats.get("episodes"):
                profiles[workload] = stats

    train_points, held = split(points, holdout=args.holdout,
                               seed=args.seed)
    model = SurrogateModel.train(
        train_points, seed=args.seed, kind=args.kind,
        members=args.members, estimators=args.estimators,
        trace_profiles=profiles)
    held_eval = evaluate(model, held)

    rows = [
        ("cache", store.root),
        ("harvested points", len(points)),
        ("train / held out", f"{len(train_points)} / {len(held)}"),
        ("model kind", model.kind),
        ("ensemble members", len(model.members)),
        ("trace profiles", len(model.trace_profiles)),
        ("model digest", model.digest()[:16]),
    ]
    if held:
        rows.append(("held-out mean |IPC err|",
                     percent(held_eval["mean_rel_error"], 2)))
        rows.append(("held-out max |IPC err|",
                     percent(held_eval["max_rel_error"], 2)))
    print(render_table("surrogate train", ["metric", "value"], rows))
    model.save(args.out)
    print(f"model written to {os.path.abspath(args.out)}")
    if held and args.max_error is not None and \
            held_eval["mean_rel_error"] > args.max_error:
        return _fail(f"held-out mean |IPC error| "
                     f"{held_eval['mean_rel_error']:.4f} exceeds the bound "
                     f"{args.max_error:.4f}")
    return 0


def add_predict(sub) -> None:
    predict = sub.add_parser(
        "predict",
        help="score a config grid with the trained surrogate instead "
             "of simulating it (--budget N buys real sims where the "
             "model is least confident)",
        description="Stamp out a seeded (workloads x techniques x "
                    "random-config) grid over the fuzzer's 31 override axes "
                    "and predict each point's IPC with a trained surrogate "
                    "model, with a per-point confidence score.  The batch "
                    "runs as a content-addressed kind='predict' engine job "
                    "whose key includes the model digest, so repeats are "
                    "cache hits and retrained models never serve stale "
                    "predictions.  --budget N first routes the N lowest-"
                    "confidence points through the real engine as ordinary "
                    "sim jobs, refits on the answers, and predicts with the "
                    "refined model; --validate K ground-truths K seed-"
                    "pinned points and enforces --max-error.")
    predict.add_argument("--model", default="surrogate.json", metavar="FILE",
                         help="trained model artifact from 'repro surrogate "
                              "train' (default: surrogate.json)")
    _add_grid_axes(predict, unset="the model's training set")
    predict.add_argument("--points", type=int, default=100, metavar="N",
                         help="grid points to predict (default: 100)")
    predict.add_argument("--grid-seed", type=int, default=0,
                         help="seed for the config grid (default: 0)")
    _add_workload_input(predict, scale="tiny", max_instructions=20000)
    predict.add_argument("--budget", type=int, default=0, metavar="N",
                         help="active learning: run the N lowest-confidence "
                              "points through the real engine and refit "
                              "before predicting (default: 0 = off)")
    predict.add_argument("--out", default=None, metavar="FILE",
                         help="with --budget: write the refined model "
                              "artifact here")
    predict.add_argument("--show", type=int, default=20, metavar="N",
                         help="lowest-confidence rows to print "
                              "(default: 20)")
    predict.add_argument("--validate", type=int, default=0, metavar="K",
                         help="ground-truth K seed-pinned grid points with "
                              "the real engine and report the mean relative "
                              "|IPC error| (default: 0)")
    predict.add_argument("--max-error", type=float, default=0.10,
                         metavar="F", help="with --validate: exit nonzero "
                         "when the mean relative |IPC error| exceeds F "
                         "(default: 0.10, the committed guardrail)")
    _add_engine(predict)
    predict.set_defaults(handler=cmd_predict)


def cmd_predict(args) -> int:
    from repro.analysis.surrogate import (PredictJob, SurrogateModel,
                                          harvest, predict_jobs, refine,
                                          sample_grid)

    model = SurrogateModel.load(args.model)
    meta = model.train_meta
    workloads, techniques = _grid_axes(args)
    workloads = workloads or list(meta.get("workloads") or [])
    techniques = techniques or list(meta.get("techniques")
                                    or sorted(ALL_TECHNIQUES))
    jobs = sample_grid(
        workloads, techniques, args.points, grid_seed=args.grid_seed,
        scale=args.scale, seed=args.seed,
        max_instructions=args.max_instructions,
        base_config=args.base_config)
    engine = _make_engine(args)

    if args.budget:
        store = engine.store if getattr(engine, "store", None) \
            is not None else _store(args, honour_no_cache=False)
        training = harvest(store)
        model, report = refine(model, jobs, engine, training,
                               args.budget)
        print(f"refine: {report.queried}/{report.budget} oracle sims "
              f"({report.failed} failed), train set {report.n_train}, "
              f"|err| on queried {report.mean_error_before:.4f} -> "
              f"{report.mean_error_after:.4f}, model "
              f"{report.digest_before[:12]} -> "
              f"{report.digest_after[:12]}")
        if args.out:
            model.save(args.out)
            print(f"refined model written to "
                  f"{os.path.abspath(args.out)}")

    outcome = engine.run([PredictJob.for_jobs(model, jobs)])[0]
    if outcome.result is not None:
        predictions = outcome.result.predictions
        served = "hit" if outcome.cached else "run"
    else:   # storeless failure path: predict inline, never bail
        predictions = predict_jobs(model, jobs)
        served = "inline"

    shown = sorted(predictions, key=lambda p: p.confidence)
    rows = [(p.workload, p.technique, f"{p.ipc:.4f}",
             f"{p.confidence:.3f}") for p in shown[:args.show]]
    print(render_table(
        f"predict: {len(predictions)} points "
        f"(model {model.digest()[:12]}, cache {served}; "
        f"{args.show} lowest-confidence shown)",
        ["workload", "technique", "IPC~", "confidence"], rows))
    mean_conf = sum(p.confidence for p in predictions) / len(predictions)
    print(f"mean confidence {mean_conf:.3f}; "
          f"lowest {shown[0].confidence:.3f} ({shown[0].label})")

    if args.validate:
        rng = random.Random(args.grid_seed + 1)
        picked = sorted(rng.sample(range(len(jobs)),
                                   min(args.validate, len(jobs))))
        truth_outcomes = engine.run([jobs[i] for i in picked])
        by_key = {p.key: p for p in predictions}
        errors = []
        for truth in truth_outcomes:
            if truth.result is None or not truth.result.instructions:
                continue
            measured = truth.result.ipc
            predicted = by_key[truth.job.key].ipc
            errors.append(abs(predicted - measured) / measured)
        if not errors:
            return _fail("no validation job produced a result")
        mean_err = sum(errors) / len(errors)
        print(f"validation: {len(errors)} ground-truth sims, "
              f"mean |IPC error| {mean_err:.4f} "
              f"(max {max(errors):.4f}, bound {args.max_error:.4f})")
        if mean_err > args.max_error:
            return _fail(f"mean |IPC error| {mean_err:.4f} exceeds the "
                         f"bound {args.max_error:.4f}")
    return 1 if _warn_abandoned(engine) else 0
