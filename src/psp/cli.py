"""Command-line pipeline: synth, pretrain, tune, eval, sweep, export-w.

Metric lines go to stdout as TSV; logs (including the resolved config echoed
as the first line of every run) go to stderr. Exit codes: 0 success, 2 usage
error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import gc
import itertools
import json
import sys

import numpy as np

from .autodiff import check_seed
from .data import (
    Checkpoint,
    SplitSpec,
    generate_sbm,
    load_checkpoint,
    load_node_dataset,
    load_tu_dataset,
    mask_training_labels,
    sample_k_shot,
    save_checkpoint,
    save_node_dataset,
    export_weight_matrix,
)
from .errors import ContractError, ParameterError, PspError
from .graph import GraphData
from .inference import class_mean_rows
from .parallel import fork_map
from .pretrain import PretrainConfig, pretrain, write_loss_log
from .prompt import (
    LR_GRID,
    WEIGHT_DECAY_GRID,
    PromptConfig,
    accuracy,
    prompt_tune,
    prototype_embeddings,
    task_context,
)

# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
# glibc's own ceiling for its dynamic mmap threshold: an N x h epoch array is
# served from the heap, while a block above 32 MiB is still unmapped when freed
_MMAP_THRESHOLD = 32 << 20
# every epoch frees all its N x h arrays; under the default (about twice the largest
# freed block) that heap top goes back to the kernel and the next epoch faults
# the same pages in again, so keep up to 1 GiB of it for reuse
_TRIM_THRESHOLD = 1 << 30
# `psp tune`'s defaults where they differ from PromptConfig's
TUNE_DEFAULTS = {"epochs": 300, "patience": 60, "dropout": 0.2}


def _echo_config(args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config")}
    print(f"config\t{json.dumps(resolved, default=str, sort_keys=True)}", file=sys.stderr)


def _load_dataset(args) -> GraphData:
    return load_tu_dataset(args.data, args.tu_name) if args.tu_name else load_node_dataset(args.data)


def _load_run(args) -> tuple[GraphData, Checkpoint]:
    """The dataset and checkpoint a run reads; `--tau` defaults to the checkpoint's."""
    g = _load_dataset(args)
    ckpt = load_checkpoint(args.ckpt)
    args.tau = ckpt.tau if args.tau is None else args.tau
    return g, ckpt


def _task_labels(g: GraphData, task: str) -> np.ndarray:
    if (labels := g.task_labels(task)) is None:
        raise ContractError(f"dataset has no labels for task {task!r}")
    return labels


def _split_for(g: GraphData, args, seed: int) -> SplitSpec:
    """Recompute the deterministic few-shot split a run's flags describe."""
    split = sample_k_shot(_task_labels(g, args.task), args.k_shot, seed, args.val_shots)
    return mask_training_labels(split, args.mask_ratio, seed)


def _config(cls, args):
    """A `cls` from the parsed flags named after its fields; the others keep their defaults."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in vars(args).items() if k in names})


def _parse_list(text: str, flag: str, kind) -> list:
    """A comma-separated flag value; blank items are skipped, but one value is required."""
    try:
        values = [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ParameterError(f"{flag} must be a comma-separated list of {kind.__name__} "
                             f"values, got {text!r}") from None
    if not values:
        raise ParameterError(f"{flag} needs at least one value, got {text!r}")
    return values


def _metric_line(run_id, seed, task, shots, accuracy) -> str:
    return f"{run_id}\t{seed}\t{task}\t{shots}\t{accuracy!r}"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> int:
    g = generate_sbm(args.n, args.classes, args.homophily, args.avg_deg,
                     args.feat_dim, args.noise, args.seed)
    save_node_dataset(args.out, g)
    # edges are drawn with replacement and repeats dropped, so this can fall below --avg-deg
    print(f"wrote synthetic dataset to {args.out}, mean degree "
          f"{g.adjacency.nnz / g.n_nodes:.4g}", file=sys.stderr)
    return 0


def _cmd_pretrain(args) -> int:
    cfg = _config(PretrainConfig, args)
    params, record = pretrain(_load_dataset(args), cfg)
    save_checkpoint(args.out, Checkpoint(tau=cfg.tau, seed=cfg.seed, params=params))
    write_loss_log(str(args.out) + ".loss.tsv", record.losses)
    print(f"pretrained {cfg.epochs} epochs, checkpoint at {args.out}", file=sys.stderr)
    return 0


def _cmd_tune(args) -> int:
    g, ckpt = _load_run(args)
    cfg = _config(PromptConfig, args)
    split = _split_for(g, args, cfg.seed)
    val = split.val if split.val.indices.size else None
    prompted, record = prompt_tune(task_context(g, ckpt.params, args.task), split.train, cfg, val=val)
    save_checkpoint(args.out, Checkpoint(tau=cfg.tau, seed=cfg.seed, params=ckpt.params,
                                         prompt=prompted))
    write_loss_log(str(args.out) + ".loss.tsv", record.losses)
    kept = "" if val is None else f", kept epoch {record.best_epoch}, val acc {record.best_acc:.4f}"
    print(f"tuned {len(record.losses)} epochs, stopped on {record.stop}{kept}, bundle at {args.out}", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    g, ckpt = _load_run(args)
    p = ckpt.prompt
    if args.variant == "psp":
        if p is None:
            raise ContractError("checkpoint holds no tuned prompt; run `tune` first or use --variant psp-np")
        if p.task != args.task:
            raise ContractError(f"--task {args.task} does not match the bundle, "
                                f"whose prompt was tuned for task {p.task}")
    split = _split_for(g, args, args.seed)
    ctx = task_context(g, ckpt.params, args.task)
    if args.variant == "psp-np":
        prototypes = class_mean_rows(ctx.struct, split.train, ctx.n_classes)
    else:
        prototypes = prototype_embeddings(ctx, p, "eval")
    acc = accuracy(ctx, prototypes, split.test, args.tau)
    print(_metric_line(args.run_id, args.seed, args.task, args.k_shot, acc))
    return 0


def _cmd_export_w(args) -> int:
    if args.tu_name and not args.data:
        raise ParameterError("--tu-name needs --data: the label column comes from the dataset it names")
    ckpt = load_checkpoint(args.ckpt)
    if ckpt.prompt is None:
        raise ContractError("checkpoint holds no tuned prompt to export")
    labels = _task_labels(_load_dataset(args), ckpt.prompt.task) if args.data else None
    export_weight_matrix(ckpt.prompt.weight_rows, labels, args.out)
    print(f"wrote weight matrix to {args.out}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    if args.val_shots < 1:
        raise ParameterError(f"--val-shots must be at least 1 to select on validation "
                             f"accuracy, got {args.val_shots}")
    seeds = _parse_list(args.seeds, "--seeds", int)
    grid = list(itertools.product(_parse_list(args.lr_grid, "--lr-grid", float),
                                  _parse_list(args.weight_decay_grid, "--weight-decay-grid", float),
                                  _parse_list(args.dropout_grid, "--dropout-grid", float)))
    g, ckpt = _load_run(args)
    base = _config(PromptConfig, args)  # every grid point and seed is checked before the first fit
    points = [dataclasses.replace(base, lr=lr, weight_decay=wd, dropout=d) for lr, wd, d in grid]
    splits = [_split_for(g, args, seed) for seed in seeds]
    jobs = [(dataclasses.replace(cfg, seed=seed), split) for cfg in points for seed, split in zip(seeds, splits)]
    # so is the test split: its size, unlike its items, does not depend on the seed
    if not splits[0].test.indices.size:
        raise ContractError("accuracy needs at least one labeled item, got none")
    ctx = task_context(g, ckpt.params, args.task)

    def fit(job):  # --val-shots >= 1: the kept weights' validation accuracy and prototypes
        cfg, split = job
        record = prompt_tune(ctx, split.train, cfg, val=split.val)[1]
        return record.best_acc, record.best_proto

    best = None
    with contextlib.closing(fork_map(fit, jobs)) as fitted:
        for cfg in points:
            val_accs, protos = zip(*itertools.islice(fitted, len(seeds)))
            mean_val = float(np.mean(val_accs))
            print(f"grid\tlr={cfg.lr}\twd={cfg.weight_decay}\tdropout={cfg.dropout}\t"
                  f"val_acc={mean_val:.4f}", file=sys.stderr)
            if best is None or mean_val > best[0]:
                best = (mean_val, cfg, protos)
    _, cfg, protos = best
    # prompt_tune is deterministic, so the grid pass's prototypes are the
    # selected config's final prompts; test is scored from them without re-tuning
    test_accs = [accuracy(ctx, proto, split.test, args.tau) for proto, split in zip(protos, splits)]
    print(f"selected\tlr={cfg.lr}\twd={cfg.weight_decay}\tdropout={cfg.dropout}")
    for seed, acc in zip(seeds, test_accs):
        print(_metric_line(args.run_id, seed, args.task, args.k_shot, acc))
    print(f"summary\t{args.run_id}\t{float(np.mean(test_accs))!r}\t{float(np.std(test_accs))!r}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--tu-name", default=None, help="TU dataset prefix (graph datasets)")
    p.add_argument("--task", choices=("node", "graph"), default="node")


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k-shot", type=int, default=3)
    p.add_argument("--val-shots", type=int, default=3)
    p.add_argument("--mask-ratio", type=float, default=0.0)


_RESOLVED_LATER = {"tau": "defaults to the checkpoint value",
                   "hidden_dim": f"defaults to {PretrainConfig.hidden_dim} for node tasks, 32 for graph tasks"}


def _add_config_flags(p: argparse.ArgumentParser, cls, names=None, **overrides) -> None:
    """One flag per field of the config `cls` (or per field in `names`), defaulting
    to the field's default unless `overrides` gives the command's own."""
    for f in dataclasses.fields(cls):
        if names is None or f.name in names:
            default = overrides.get(f.name, f.default)
            p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=default,
                           help=_RESOLVED_LATER[f.name] if default is None else None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="psp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic block-model dataset")
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--h", dest="homophily", type=float, default=0.8)
    p.add_argument("--avg-deg", type=float, default=2.5)
    p.add_argument("--feat-dim", type=int, default=64)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("pretrain", help="contrastively pre-train the two encoders")
    _add_data_flags(p)
    p.add_argument("--out", required=True)
    _add_config_flags(p, PretrainConfig, hidden_dim=None)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("tune", help="learn prompt weights on a few-shot split")
    _add_data_flags(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    _add_split_flags(p)
    _add_config_flags(p, PromptConfig, **TUNE_DEFAULTS, tau=None)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    _add_data_flags(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--variant", choices=("psp", "psp-np"), default="psp")
    p.add_argument("--run-id", default="run")
    _add_split_flags(p)
    _add_config_flags(p, PromptConfig, ("tau", "seed"), tau=None)
    p.set_defaults(func=_cmd_eval)

    # no abbreviations: `--seed` must not pass for `--seeds`
    p = sub.add_parser("sweep", help="grid-search tuning hyperparameters on validation accuracy",
                       allow_abbrev=False)
    _add_data_flags(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--lr-grid", default=",".join(map(str, LR_GRID)))
    p.add_argument("--weight-decay-grid", default=",".join(map(str, WEIGHT_DECAY_GRID)))
    p.add_argument("--dropout-grid", default="0.2,0.5,0.8")
    p.add_argument("--seeds", default="0,1,2,3,4", help="one fit per seed at each grid point")
    p.add_argument("--run-id", default="sweep")
    _add_split_flags(p)
    _add_config_flags(p, PromptConfig, ("epochs", "tau", "edge_ratio", "patience"), tau=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("export-w", help="dump learned prompt weights as TSV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--data", default=None, help="optional dataset directory for the label column")
    p.add_argument("--tu-name", default=None)
    p.set_defaults(func=_cmd_export_w)
    return parser


def run(argv=None) -> int:
    """Parse argv and execute one subcommand, mapping failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "hidden_dim", 1) is None:
        args.hidden_dim = 32 if args.task == "graph" else PretrainConfig.hidden_dim
    _echo_config(args)
    try:
        if hasattr(args, "seed"):  # seeded_rng reads a seed mod 2^64, so a wider one aliases
            check_seed(args.seed)
        return args.func(args)
    except PspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def keep_freed_memory() -> list[int]:
    """Make glibc's allocator keep freed heap memory for the next epoch.

    Fixing one threshold turns off glibc's dynamic adjustment of both, so both
    are set. Returns each `mallopt` call's result (1 on success), or [] where
    glibc's `mallopt` is missing, in which case nothing changes. Only `main`
    calls it: `run`, library callers and tests keep the default allocator.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # glibc only: the parameter numbers are glibc's
        mallopt = libc.mallopt
    except (AttributeError, OSError, TypeError):
        return []
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return [mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD), mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)]


def main() -> None:
    # the objects numpy, scipy and psp create at import live until exit; in the
    # permanent generation, no collection during the run, in a forked worker or
    # at interpreter exit walks them again
    gc.freeze()
    keep_freed_memory()
    sys.exit(run())


if __name__ == "__main__":
    main()
