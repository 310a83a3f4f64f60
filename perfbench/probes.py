"""Which psp functions the traced run wraps, and the per-layer metrics their
spans add up to.

A layer is a `psp` module; a span is named `<layer>.<function>` and carries
the encoder `mode` as an attribute where a metric is split by mode. A
function that a later version of psp no longer has is skipped, and its
metrics read 0.
"""

from __future__ import annotations

import importlib
import inspect
import os
from collections import Counter

from tracing import Span, Tracer, self_time_by_layer, totals_by_name, traced, useful_epoch_share

# op names that psp.autodiff records on the tape
TAPE_OPS = ("abs", "add", "concat_rows", "cosine_sim_matrix", "dropout", "exp", "log", "matmul",
            "mul", "relu", "row_sum", "rsqrt", "scale", "select_rows", "spmm", "total_sum",
            "transpose")
LAYERS = ("autodiff", "pretrain", "encoders", "graph", "prompt", "inference", "data")
MODES = ("train", "eval")


def _mode(fn):
    signature = inspect.signature(fn)

    def before(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"mode": bound.arguments.get("mode")}

    return before


def _tape_stats(args, kwargs):
    tape = kwargs.get("tape", args[0] if args else None)
    records = getattr(tape, "records", [])
    ops = Counter(getattr(r, "op", "?") for r in records)
    nbytes = sum(getattr(getattr(getattr(r, "out", None), "data", None), "nbytes", 0)
                 for r in records)
    return {"tape_ops": len(records), "ops": dict(ops), "tape_bytes": int(nbytes)}


def _file_bytes(args, kwargs, result, span):
    path = kwargs.get("path", args[0] if args else None)
    span.attrs["bytes"] = os.path.getsize(path)


# (module, attribute path, span name, split by mode, extra hook)
PROBES = (
    ("psp.autodiff", "backward", "autodiff.backward", False, "tape"),
    ("psp.autodiff", "adam_step", "autodiff.adam_step", False, None),
    ("psp.pretrain", "pretrain", "pretrain.pretrain", False, None),
    ("psp.pretrain", "ntxent_pretrain_loss", "pretrain.loss", False, None),
    ("psp.pretrain", "write_loss_log", "pretrain.write_loss_log", False, None),
    ("psp.encoders", "mlp_forward", "encoders.mlp_forward", True, None),
    ("psp.encoders", "gnn_forward", "encoders.gnn_forward", True, None),
    ("psp.graph", "build_csr", "graph.build_csr", False, None),
    ("psp.graph", "gcn_normalize", "graph.gcn_normalize", False, None),
    ("psp.graph", "augment_prompted", "graph.augment_prompted", False, None),
    ("psp.graph", "normalize_prompted", "graph.normalize_prompted", False, None),
    ("psp.graph", "NormalizedPromptOperator.apply", "graph.prompt_apply", False, None),
    ("psp.graph", "mean_readout", "graph.mean_readout", False, None),
    ("psp.prompt", "prompt_tune", "prompt.prompt_tune", False, "val_curve"),
    ("psp.prompt", "prototype_embeddings", "prompt.prototype_embeddings", True, None),
    ("psp.prompt", "prompt_loss", "prompt.prompt_loss", False, None),
    ("psp.prompt", "graph_task_views", "prompt.graph_task_views", False, None),
    ("psp.inference", "predict", "inference.predict", False, None),
    ("psp.inference", "evaluate", "inference.evaluate", False, "val_acc"),
    ("psp.inference", "np_prototypes", "inference.np_prototypes", False, None),
    ("psp.data", "generate_sbm", "data.generate_sbm", False, None),
    ("psp.data", "save_node_dataset", "data.save_node_dataset", False, None),
    ("psp.data", "load_node_dataset", "data.load_node_dataset", False, None),
    ("psp.data", "load_tu_dataset", "data.load_tu_dataset", False, None),
    ("psp.data", "save_checkpoint", "data.save_checkpoint", False, "bytes"),
    ("psp.data", "load_checkpoint", "data.load_checkpoint", False, "bytes"),
    ("psp.data", "sample_k_shot", "data.sample_k_shot", False, None),
    ("psp.data", "export_weight_matrix", "data.export_weight_matrix", False, None),
)


def replacements(tracer: Tracer) -> dict:
    """Original function object -> span-recording wrapper, for `tracing.patched`."""
    out = {}
    for module_name, path, name, by_mode, hook in PROBES:
        try:
            fn = importlib.import_module(module_name)
            for part in path.split("."):
                fn = getattr(fn, part)
        except (ImportError, AttributeError):
            continue
        before = _mode(fn) if by_mode else None
        after = None
        if hook == "tape":
            before = _tape_stats
        elif hook == "val_curve":
            def before(args, kwargs):
                return {"val_accs": []}
        elif hook == "val_acc":
            def after(args, kwargs, result, span):
                parent = tracer.spans[span.parent] if span.parent is not None else None
                if parent is not None and parent.name == "prompt.prompt_tune":
                    parent.attrs["val_accs"].append(result)
        elif hook == "bytes":
            after = _file_bytes
        out[fn] = traced(fn, name, tracer, before, after)
    return out


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [("autodiff.backward_calls", "count"), ("autodiff.backward_s", "s"),
             ("autodiff.adam_step_s", "s"), ("autodiff.tape_ops", "count"),
             ("autodiff.tape_bytes", "B")]
    names += [(f"autodiff.tape_ops.{op}", "count") for op in TAPE_OPS]
    names += [("pretrain.loss_s", "s")]
    for fn in ("mlp_forward", "gnn_forward"):
        names += [(f"encoders.{fn}_calls.{m}", "count") for m in MODES]
        names += [(f"encoders.{fn}_s.{m}", "s") for m in MODES]
    names += [("graph.gcn_normalize_calls", "count"), ("graph.gcn_normalize_s", "s"),
              ("graph.prompt_operator_s", "s"), ("graph.prompt_apply_calls", "count"),
              ("graph.prompt_apply_s", "s"), ("graph.build_csr_s", "s"),
              ("graph.mean_readout_s", "s"),
              ("prompt.prompt_tune_calls", "count"), ("prompt.prompt_tune_s", "s")]
    names += [(f"prompt.prototype_embeddings_calls.{m}", "count") for m in MODES]
    names += [("prompt.prototype_embeddings_s", "s"), ("prompt.prompt_loss_s", "s"),
              ("prompt.useful_epoch_share", "ratio"),
              ("inference.predict_calls", "count"), ("inference.predict_s", "s")]
    names += [(f"data.{fn}_s", "s") for fn in ("generate_sbm", "save_node_dataset",
                                               "load_node_dataset", "load_tu_dataset",
                                               "save_checkpoint", "load_checkpoint")]
    names += [("data.checkpoint_bytes", "B")]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names += [("cli.startup_s", "s"), ("trace.coverage", "ratio"),
              ("trace.overhead_share", "ratio")]
    return names


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer values from the spans of one traced run (cli.* and trace.* excepted)."""
    totals = totals_by_name(spans)

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def seconds(name):
        return totals.get(name, (0, 0.0))[1]

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def by_mode(name, mode):
        hits = [s for s in spans if s.name == name and s.attrs.get("mode") == mode]
        return len(hits), sum(s.duration for s in hits)

    ops = Counter()
    for s in spans:
        if s.name == "autodiff.backward":
            ops.update(s.attrs.get("ops", {}))
    m = {"autodiff.backward_calls": calls("autodiff.backward"),
         "autodiff.backward_s": seconds("autodiff.backward"),
         "autodiff.adam_step_s": seconds("autodiff.adam_step"),
         "autodiff.tape_ops": attr_sum("autodiff.backward", "tape_ops"),
         "autodiff.tape_bytes": attr_sum("autodiff.backward", "tape_bytes")}
    m.update({f"autodiff.tape_ops.{op}": ops.get(op, 0) for op in TAPE_OPS})
    m["pretrain.loss_s"] = seconds("pretrain.loss")
    for fn in ("mlp_forward", "gnn_forward"):
        for mode in MODES:
            n, t = by_mode(f"encoders.{fn}", mode)
            m[f"encoders.{fn}_calls.{mode}"] = n
            m[f"encoders.{fn}_s.{mode}"] = t
    m.update({
        "graph.gcn_normalize_calls": calls("graph.gcn_normalize"),
        "graph.gcn_normalize_s": seconds("graph.gcn_normalize"),
        "graph.prompt_operator_s": seconds("graph.augment_prompted")
        + seconds("graph.normalize_prompted"),
        "graph.prompt_apply_calls": calls("graph.prompt_apply"),
        "graph.prompt_apply_s": seconds("graph.prompt_apply"),
        "graph.build_csr_s": seconds("graph.build_csr"),
        "graph.mean_readout_s": seconds("graph.mean_readout"),
        "prompt.prompt_tune_calls": calls("prompt.prompt_tune"),
        "prompt.prompt_tune_s": seconds("prompt.prompt_tune"),
    })
    for mode in MODES:
        m[f"prompt.prototype_embeddings_calls.{mode}"] = by_mode("prompt.prototype_embeddings",
                                                                 mode)[0]
    curves = [s.attrs["val_accs"] for s in spans
              if s.name == "prompt.prompt_tune" and len(s.attrs.get("val_accs", [])) > 1]
    m.update({
        "prompt.prototype_embeddings_s": seconds("prompt.prototype_embeddings"),
        "prompt.prompt_loss_s": seconds("prompt.prompt_loss"),
        "prompt.useful_epoch_share": useful_epoch_share(curves),
        "inference.predict_calls": calls("inference.predict"),
        "inference.predict_s": seconds("inference.predict"),
    })
    for fn in ("generate_sbm", "save_node_dataset", "load_node_dataset", "load_tu_dataset",
               "save_checkpoint", "load_checkpoint"):
        m[f"data.{fn}_s"] = seconds(f"data.{fn}")
    m["data.checkpoint_bytes"] = (attr_sum("data.save_checkpoint", "bytes")
                                  + attr_sum("data.load_checkpoint", "bytes"))
    own = self_time_by_layer(spans)
    m.update({f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS})
    return m
