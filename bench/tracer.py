"""Span tracer that wraps gustuq's public functions from outside the library.

Nothing in ``src/`` is changed: :func:`install` replaces each traced name
where the calling code looks it up (a module attribute, a class attribute,
or a name another module imported with ``from ... import``). Spans live in
memory as ``(id, name, start, end, parent)`` and are written out once, by
:meth:`Tracer.write`, when the pass ends.

Self time of a span is its duration minus the time its child spans cover;
a layer's self time is the sum over its spans. Every traced call opens a
span, except ``fmt``, which runs once per output cell: it is timed and
counted but not recorded, so the span list stays small.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

LAYERS = (
    "cli", "data", "fileio", "artifact", "nncore",
    "evidential", "metrics", "xai", "spatial", "tune",
)
# Metric holding each layer's self time; together with trace.bookkeeping_s
# they add up to the traced pass's wall time.
SELF_TIME = {layer: f"{layer}.self_s" for layer in LAYERS}
SELF_TIME.update(metrics="metrics.eval_s", spatial="spatial.s")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[list] = []  # [span id, child time]
        self.layer_self: dict[str, float] = defaultdict(float)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_by_name: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.bookkeeping_s = 0.0
        self._next_id = 0

    def wrap(self, name: str, fn, record: bool = True, on_return=None):
        """Return ``fn`` timed as span ``name`` (layer = prefix before '.').

        ``on_return(result, args, kwargs, seconds)`` runs after a call that
        returned. The wrapper's own work, ``on_return`` included, is charged
        to ``bookkeeping_s`` rather than to the caller's self time.
        """
        layer = name.split(".", 1)[0]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            enter = clock()
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                self.layer_self[layer] += own
                self.self_by_name[name] += own
                self.inclusive[name] += duration
                self.calls[name] += 1
                if record:
                    self.spans.append(
                        (span_id, name, start, end, None if parent is None else parent[0])
                    )
            if on_return is not None:
                on_return(result, args, kwargs, duration)
            leave = clock()
            cost = (start - enter) + (leave - end)
            self.bookkeeping_s += cost
            if parent is not None:
                parent[1] += duration + cost
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        """Replace ``owner.attr`` by its traced version; keeps classmethods."""
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, **kwargs)))
        else:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kwargs))

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines, one span per line."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")


def _matmul_shapes(model):
    return [layer.weights.shape for layer in model.layers]


def install(tracer: Tracer) -> None:
    """Trace every public function of the pipeline that a CLI pass reaches."""
    from gustuq import artifact, cli, data, evidential, metrics, nncore, spatial, tune, xai

    t = tracer
    counts = t.counts

    # cli: the entry point, and each command where main looks it up
    cli.main = t.wrap("cli.main", cli.main)
    for command, (handler, defaults) in list(cli.COMMANDS.items()):
        cli.COMMANDS[command] = (t.wrap(f"cli.{command}", handler), defaults)

    # data: ingest, split, standardization
    def ingested(result, args, kwargs, seconds):
        counts["data.rows_ingested"] += len(result)

    t.patch(data, "load_station_csv", "data.load", on_return=ingested)
    t.patch(data, "load_grid_csv", "data.load", on_return=ingested)
    t.patch(data, "chronological_split", "data.split")
    t.patch(data.Standardizer, "fit", "data.standardize")
    t.patch(data.Standardizer, "apply", "data.standardize")
    t.patch(data.Standardizer, "inverse_column", "data.standardize")

    # fileio: cli imported these names, so patch them in cli's namespace
    def written(result, args, kwargs, seconds):
        path = args[0] if args else kwargs["path"]
        counts["fileio.bytes_written"] += os.path.getsize(path)

    def rows_written(result, args, kwargs, seconds):
        counts["fileio.rows_written"] += len(args[2] if len(args) > 2 else kwargs["rows"])
        written(result, args, kwargs, seconds)

    t.patch(cli, "write_csv", "fileio.write", on_return=rows_written)
    t.patch(cli, "write_json", "fileio.write", on_return=written)
    t.patch(cli, "fmt", "fileio.fmt", record=False)

    # artifact
    t.patch(artifact, "load_model", "artifact.load")
    t.patch(artifact, "save_model", "artifact.save")

    # nncore: forward split by mode, with computed flops and bytes
    def forward_done(result, args, kwargs, seconds):
        model, batch = args[0], args[1]
        train_mode = kwargs.get("train_mode", args[2] if len(args) > 2 else False)
        mode = "train" if train_mode else "nograd"
        rows = len(batch)
        counts[f"nncore.forward_{mode}_calls"] += 1
        counts[f"nncore.forward_{mode}_rows"] += rows
        t.inclusive[f"nncore.forward_{mode}"] += seconds
        for fan_in, fan_out in _matmul_shapes(model):
            counts["nncore.flops"] += 2 * rows * fan_in * fan_out
            counts["nncore.bytes"] += 8 * (rows * fan_in + fan_in * fan_out + rows * fan_out)

    def backward_done(result, args, kwargs, seconds):
        model, cache = args[0], args[1]
        rows = cache.batch_size
        for i, (fan_in, fan_out) in enumerate(_matmul_shapes(model)):
            # dW = a_in.T @ delta for every layer; delta @ W.T below the top one
            products = 2 if i > 0 else 1
            counts["nncore.backward_flops"] += products * 2 * rows * fan_in * fan_out
            counts["nncore.backward_bytes"] += products * 8 * (
                rows * fan_in + fan_in * fan_out + rows * fan_out
            )

    t.patch(nncore, "forward", "nncore.forward", on_return=forward_done)
    t.patch(nncore, "backward", "nncore.backward", on_return=backward_done)
    t.patch(nncore, "penalty_loss", "nncore.penalty")
    t.patch(nncore.Adam, "step", "nncore.adam")

    # evidential
    def epochs(result, args, kwargs, seconds):
        counts["evidential.epochs"] += len(result[1])

    t.patch(evidential, "train_evidential", "evidential.train", on_return=epochs)
    t.patch(evidential, "total_loss", "evidential.loss")
    t.patch(evidential, "head_transform", "evidential.head")
    t.patch(evidential, "decompose", "evidential.head")
    t.patch(evidential.EvidentialModel, "predict", "evidential.predict")

    # metrics, also where xai and tune imported them by name
    for fn in (
        "evaluate_predictions", "report_to_dict", "mask_highly_uncertain", "picp",
        "pit_values", "pitd", "spread_skill", "discard_fraction", "error_metrics",
        "prediction_interval",
    ):
        t.patch(metrics, fn, "metrics.eval")
    t.patch(metrics.PredictionSet, "from_decomposition", "metrics.eval")
    t.patch(metrics.PredictionSet, "interval", "metrics.eval")
    t.patch(xai, "spread_skill", "metrics.eval")
    for fn in ("pit_values", "pitd", "spread_skill"):
        t.patch(tune, fn, "metrics.eval")

    # xai: count every model evaluation made through the predict callback
    def counting(predict_fn):
        def counted(matrix):
            counts["xai.model_evals"] += 1
            return predict_fn(matrix)
        return counted

    def counted_xai(fn):
        return lambda predict_fn, *args, **kwargs: fn(counting(predict_fn), *args, **kwargs)

    xai.permutation_importance = counted_xai(t.wrap("xai.pfi", xai.permutation_importance))
    xai.partial_dependence = counted_xai(t.wrap("xai.pdp", xai.partial_dependence))

    # spatial
    def field_built(result, args, kwargs, seconds):
        counts["spatial.fields"] += 1

    for fn in ("spatial_gradient", "minmax_normalize", "track_spatial_max", "alignment_fraction"):
        t.patch(spatial, fn, "spatial.ops")
    t.patch(spatial.GridField, "__post_init__", "spatial.field", on_return=field_built)

    # tune: the search and each trial of the objective it runs
    def searched(result, args, kwargs, seconds):
        counts["tune.trials"] += len(result.trials)
        counts["tune.trials_failed"] += result.n_failed

    make_objective = tune.make_evidential_objective

    def traced_objective(*args, **kwargs):
        return t.wrap("tune.trial", make_objective(*args, **kwargs))

    tune.make_evidential_objective = traced_objective
    t.patch(tune, "search", "tune.search", on_return=searched)


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed by benchmark metric name."""
    t = tracer
    inc = t.inclusive
    own = t.self_by_name
    c = t.counts
    m: dict[str, float] = {}
    for layer, name in SELF_TIME.items():
        m[name] = t.layer_self.get(layer, 0.0)
    for command in ("train", "predict", "evaluate", "explain", "spatial", "tune"):
        m[f"cli.{command}_s"] = inc.get(f"cli.{command}", 0.0)

    m["data.load_s"] = inc.get("data.load", 0.0)
    m["data.rows_ingested"] = c["data.rows_ingested"]
    m["data.rows_per_s"] = c["data.rows_ingested"] / m["data.load_s"] if m["data.load_s"] else 0.0

    m["fileio.write_s"] = inc.get("fileio.write", 0.0)
    m["fileio.fmt_s"] = inc.get("fileio.fmt", 0.0)
    m["fileio.fmt_calls"] = t.calls["fileio.fmt"]
    m["fileio.rows_written"] = c["fileio.rows_written"]
    m["fileio.bytes_written"] = c["fileio.bytes_written"]

    m["artifact.load_s"] = inc.get("artifact.load", 0.0)
    m["artifact.save_s"] = inc.get("artifact.save", 0.0)

    m["nncore.forward_s"] = inc.get("nncore.forward", 0.0)
    m["nncore.forward_calls"] = t.calls["nncore.forward"]
    for mode in ("nograd", "train"):
        m[f"nncore.forward_{mode}_s"] = inc.get(f"nncore.forward_{mode}", 0.0)
        m[f"nncore.forward_{mode}_calls"] = c[f"nncore.forward_{mode}_calls"]
        m[f"nncore.forward_{mode}_rows"] = c[f"nncore.forward_{mode}_rows"]
    m["nncore.forward_rows"] = m["nncore.forward_nograd_rows"] + m["nncore.forward_train_rows"]
    m["nncore.backward_s"] = inc.get("nncore.backward", 0.0)
    m["nncore.adam_s"] = inc.get("nncore.adam", 0.0)
    m["nncore.adam_steps"] = t.calls["nncore.adam"]
    for key in ("flops", "backward_flops", "bytes", "backward_bytes"):
        m[f"nncore.{key}"] = c[f"nncore.{key}"]
    kernel_s = m["nncore.forward_s"] + m["nncore.backward_s"]
    kernel_flops = m["nncore.flops"] + m["nncore.backward_flops"]
    m["nncore.gflops_per_s"] = kernel_flops / kernel_s / 1e9 if kernel_s else 0.0

    m["evidential.loss_s"] = inc.get("evidential.loss", 0.0)
    m["evidential.head_s"] = inc.get("evidential.head", 0.0)
    m["evidential.train_self_s"] = own.get("evidential.train", 0.0)
    m["evidential.epochs"] = c["evidential.epochs"]

    m["xai.pfi_self_s"] = own.get("xai.pfi", 0.0)
    m["xai.pdp_self_s"] = own.get("xai.pdp", 0.0)
    m["xai.model_evals"] = c["xai.model_evals"]

    m["spatial.fields"] = c["spatial.fields"]

    m["tune.trials"] = c["tune.trials"]
    m["tune.trials_failed"] = c["tune.trials_failed"]
    m["tune.trial_s"] = inc.get("tune.trial", 0.0)

    m["trace.wall_s"] = traced_wall_s
    m["trace.bookkeeping_s"] = t.bookkeeping_s
    return m
