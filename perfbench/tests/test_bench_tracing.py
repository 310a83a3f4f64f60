import importlib
import itertools

import pytest

import probes
from tracing import (Span, Tracer, coverage, covered, patched, self_times, totals_by_name, traced,
                     useful_epoch_share)


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered([(1.0, 9.0), (2.0, 3.0)], 0.0, 10.0) == pytest.approx(8.0)


def test_self_time_subtracts_children_not_grandchildren():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    tracer = Tracer(fake_clock(0, 1, 2, 3, 4, 5, 9, 10))
    with tracer.span("stage.x"):
        with tracer.span("graph.a"):
            with tracer.span("autodiff.a1"):
                pass
        with tracer.span("prompt.b"):
            pass
    names = [s.name for s in tracer.spans]
    assert names == ["stage.x", "graph.a", "autodiff.a1", "prompt.b"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert self_times(tracer.spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert coverage(tracer.spans, [0]) == pytest.approx(0.7)


def test_self_times_sum_to_root_duration():
    tracer = Tracer(itertools.count().__next__)
    with tracer.span("stage.x"):
        for _ in range(3):
            with tracer.span("encoders.f"):
                with tracer.span("graph.g"):
                    pass
    assert sum(self_times(tracer.spans)) == pytest.approx(tracer.spans[0].duration)


def test_totals_count_nested_same_name_once_in_time():
    spans = [Span("a.f", 0.0, 10.0, None, "r"), Span("a.f", 2.0, 4.0, 0, "r"),
             Span("a.g", 5.0, 6.0, 0, "r")]
    assert totals_by_name(spans) == {"a.f": (2, 10.0), "a.g": (1, 1.0)}


def test_spans_survive_exceptions_and_record_run_id():
    tracer = Tracer(fake_clock(0, 1, 2, 3))
    tracer.run_id = "w:1:stage"
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            raise RuntimeError("boom")
    with tracer.span("next"):
        pass
    assert [(s.start, s.end, s.parent, s.run_id) for s in tracer.spans] == \
        [(0, 1, None, "w:1:stage"), (2, 3, None, "w:1:stage")]


def test_useful_epoch_share_follows_strict_improvement():
    # init 0.5; epochs: 0.5 (tie, no move), 0.7 (best at epoch 1), 0.7, 0.6
    assert useful_epoch_share([[0.5, 0.5, 0.7, 0.7, 0.6]]) == pytest.approx(2 / 4)
    # never beats the initialization: nothing useful
    assert useful_epoch_share([[0.9, 0.1, 0.2]]) == 0.0
    assert useful_epoch_share([[0.1, 0.2], [0.5, 0.4, 0.6]]) == pytest.approx((1 + 2) / 3)
    assert useful_epoch_share([]) == 0.0


def module(name):
    # `psp/__init__` re-exports functions under submodule names (psp.pretrain)
    return importlib.import_module(name)


def test_patched_rebinds_every_import_of_backward():
    from psp.data import generate_sbm
    from psp.pretrain import PretrainConfig

    autodiff, pretrain, prompt = (module(f"psp.{m}") for m in ("autodiff", "pretrain", "prompt"))
    original = autodiff.backward
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    with patched({original: counting}):
        assert pretrain.backward is counting
        assert prompt.backward is counting
        assert autodiff.backward is counting
        g = generate_sbm(12, 2, 0.8, 2.0, 4, 0.5, 0)
        pretrain.pretrain(g, PretrainConfig(epochs=2, hidden_dim=4))
    assert len(calls) == 2
    assert pretrain.backward is original and autodiff.backward is original


def test_patched_reaches_methods_and_restores_them():
    from psp.graph import NormalizedPromptOperator

    original = NormalizedPromptOperator.apply
    with patched({original: lambda self, h: "wrapped"}):
        assert NormalizedPromptOperator.apply(None, None) == "wrapped"
    assert NormalizedPromptOperator.apply is original


def test_probe_wrappers_record_layer_metrics():
    from psp.data import generate_sbm
    from psp.pretrain import PretrainConfig

    tracer = Tracer()
    with patched(probes.replacements(tracer)):
        with tracer.span("stage.pretrain"):
            g = generate_sbm(12, 2, 0.8, 2.0, 4, 0.5, 0)
            module("psp.pretrain").pretrain(g, PretrainConfig(epochs=3, hidden_dim=4))
    m = probes.layer_metrics(tracer.spans)
    assert m["autodiff.backward_calls"] == 3
    assert m["encoders.mlp_forward_calls.train"] == 3
    assert m["encoders.gnn_forward_calls.train"] == 3
    assert m["autodiff.tape_ops"] == sum(m[f"autodiff.tape_ops.{op}"] for op in probes.TAPE_OPS)
    assert m["autodiff.tape_bytes"] > 0 and m["pretrain.loss_s"] > 0
    assert set(m) | {"cli.startup_s", "trace.coverage", "trace.overhead_share"} == \
        {name for name, _ in probes.per_layer_names()}


def test_traced_wrapper_keeps_name_and_result():
    tracer = Tracer()

    def f(x, mode="eval"):
        """doc"""
        return x + 1

    wrapped = traced(f, "layer.f", tracer, before=lambda a, k: {"n": a[0]},
                     after=lambda a, k, r, span: span.attrs.update(result=r))
    assert wrapped(2) == 3 and wrapped.__name__ == "f" and wrapped.__doc__ == "doc"
    assert tracer.spans[0].attrs == {"n": 2, "result": 3}
