"""Per-layer tracing of awakesim from outside the package.

The tracer replaces public functions and methods with timing wrappers, each
at the place where callers look the name up: ``node_rng``, ``run``,
``verify_mis`` and ``verify_matching`` are imported by name into the modules
that use them, so they are patched in those modules, while ``engine.run``
reads ``_deliver`` and ``payload_bits`` from its own module globals.

Every wrapped call pushes a frame on one stack, so each category gets both
its cumulative time and its self time (its time minus the wrapped calls
nested in it).  Coarse calls also record a span ``(id, parent, name, start,
end)`` kept in memory for the whole run.  Per-message hooks, called hundreds
of thousands of times per pass, only add to counters.  Work the tracer does
for its own counters is timed and charged to ``trace``, never to the layer
around it.
"""

from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("graphs", "rng", "engine", "mis", "fractional", "augmentation",
          "oracles")

_HOOKS = ("bind", "on_round_start", "wake_set", "send1", "send2", "finish")


class Tracer:
    """Installs wrappers into awakesim and accumulates what they measure."""

    def __init__(self, aw):
        self.aw = aw
        self.calls = defaultdict(int)
        self.cum = defaultdict(float)
        self.self_t = defaultdict(float)
        self.extra = defaultdict(float)
        self.active = defaultdict(int)
        self.sampled_args = []
        self.spans = []
        self._stack = [[0.0, 0]]
        self._patches = []
        self._next_span = 1

    # -- accumulation ---------------------------------------------------

    def begin(self, label: str) -> None:
        """Clear the counters and open a root span for one traced phase."""
        for d in (self.calls, self.cum, self.self_t, self.extra, self.active):
            d.clear()
        self.sampled_args.clear()
        root = self._next_span
        self._next_span += 1
        self._stack[:] = [[0.0, root]]
        self._root = (root, label, time.perf_counter())

    def end(self) -> float:
        """Close the root span; return its wall time."""
        root, label, t0 = self._root
        t1 = time.perf_counter()
        self.spans.append((root, 0, label, t0, t1))
        return t1 - t0

    def nested_time(self) -> float:
        """Time of wrapped calls made directly from the root."""
        return self._stack[0][0]

    def _bookkeep(self, fn, *args) -> None:
        t0 = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t0
        self._stack[-1][0] += dt
        self.self_t["trace.bookkeeping"] += dt

    def _wrap(self, name, fn, span=True, after=None):
        clock = time.perf_counter
        stack = self._stack
        calls, cum, self_t, active = self.calls, self.cum, self.self_t, self.active
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if span:
                sid = tracer._next_span
                tracer._next_span += 1
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                dt = t1 - t0
                calls[name] += 1
                cum[name] += dt
                self_t[name] += dt - frame[0]
                parent[0] += dt
                if span:
                    spans.append((sid, parent[1], name, t0, t1))
            if after is not None:
                tracer._bookkeep(after, result, args, kwargs, dt)
            return result

        return wrapper

    # -- patching -------------------------------------------------------

    def _patch(self, owner, attr, name, span=True, after=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, span, after))

    def install(self) -> None:
        aw = self.aw
        graphs, engine, mis, frac, aug = (aw.graphs, aw.engine, aw.mis,
                                          aw.fractional, aw.augmentation)
        p = self._patch
        # graphs
        p(graphs, "gen_gnp", "graphs.gen")
        p(graphs, "gen_bipartite", "graphs.gen")
        p(graphs.Graph, "__init__", "graphs.construct", span=False)
        p(graphs.Graph, "induced", "graphs.induced")
        p(graphs.Graph, "adj_arrays", "graphs.adj_arrays", span=False)
        # rng, where each module looks it up
        for mod in (graphs, frac, aug):
            p(mod, "node_rng", "rng.scalar", span=False)
        p(mis, "node_rng_array", "rng.array", span=False)
        # engine
        for mod in (mis, frac):
            p(mod, "run", "engine.run", after=self._after_run)
        self._patch_deliver(engine)
        p(engine, "payload_bits", "engine.payload_bits", span=False)
        p(engine.AwakeLedger, "merge", "engine.ledger_merge", span=False)
        # mis
        p(mis, "awake_mis", "mis.awake_mis", after=self._after_awake_mis)
        p(mis, "luby_mis", "mis.luby_mis")
        for cls in (mis.LubyProtocol, mis.Part1Protocol, mis.Part2Protocol):
            for hook in _HOOKS:
                if hook in vars(cls):
                    p(cls, hook, "mis.hooks", span=False)
        # fractional
        p(frac, "vanilla_fractional", "fractional.vanilla")
        p(frac, "sampled_fractional", "fractional.sampled",
          after=self._after_sampled)
        p(frac, "round_matching", "fractional.rounding")
        p(frac, "extract_vertex_cover", "fractional.cover")
        proto = frac.SampledMatchingProtocol
        p(proto, "bind", "fractional.bind", span=False)
        for hook in _HOOKS[1:]:
            if hook in vars(proto):
                p(proto, hook, "fractional.hooks", span=False)
        p(proto, "_is_tight", "fractional.tight_check", span=False)
        # augmentation
        p(aug, "full_matching_pipeline", "augmentation.pipeline")
        p(aug, "general_one_plus_eps", "augmentation.general")
        p(aug, "bipartite_one_plus_eps", "augmentation.bipartite")
        p(aug, "delta_maximal", "augmentation.delta_maximal")
        p(aug.MatchBox, "__call__", "augmentation.box", after=self._after_box)
        p(aug, "build_layer_graph", "augmentation.layer_graph")
        p(aug, "find_maximal_paths", "augmentation.find_paths")
        p(aug, "augment", "augmentation.augment")
        p(aug, "_crossing_graph", "augmentation.crossing_graph")
        # oracles, counting only checks made inside the algorithms
        p(mis, "verify_mis", "oracles.verify", span=False)
        p(aug, "verify_matching", "oracles.verify", span=False)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch_deliver(self, engine):
        original = engine._deliver
        timed = self._wrap("engine.deliver", original, span=False)
        self._patches.append((engine, "_deliver", original))
        broadcast = engine.BROADCAST
        extra = self.extra

        def count(sent, adj_np, inboxes):
            intended = messages = 0
            for v, msgs in sent:
                for dst, _ in msgs:
                    messages += 1
                    intended += len(adj_np[v]) if dst == broadcast else 1
            delivered = sum(len(box) for box in inboxes.values())
            extra["engine.messages"] += messages
            extra["engine.deliveries"] += delivered
            extra["engine.dropped_at_sleepers"] += intended - delivered

        def deliver(msgs_by_sender, adj_np, awake_mask, inboxes, congest_bound,
                    measure):
            sent = []
            timed(_tee(msgs_by_sender, sent), adj_np, awake_mask, inboxes,
                  congest_bound, measure)
            self._bookkeep(count, sent, adj_np, inboxes)

        engine._deliver = deliver

    # -- bookkeeping on return values -------------------------------------

    def _after_run(self, result, args, kwargs, dt):
        _, _, metrics = result
        extra, active = self.extra, self.active
        extra["engine.awake_node_rounds"] += metrics.total_awake
        part = kwargs.get("part", args[4] if len(args) > 4 else "main")
        if part == "luby":
            stage = "mis.stage3_s" if active["mis.awake_mis"] else "mis.luby_s"
        else:
            stage = {"part1": "mis.stage1_s", "part2": "mis.stage2_s"}.get(part)
        if stage is not None:
            extra[stage] += dt
        if active["fractional.sampled"]:
            extra["fractional.run_in_sampled_s"] += dt

    def _after_awake_mis(self, result, args, kwargs, dt):
        _, ledger, metrics = result
        extra = self.extra
        parts = ledger.part_totals()
        for part in ("part1", "part2", "luby"):
            extra[f"mis.{part}_awake"] += parts.get(part, 0)
        diag = metrics.diagnostics or {}
        extra["mis.residual1_n"] += diag.get("residual1_n", 0)
        extra["mis.residual2_n"] += diag.get("residual2_n", 0)
        extra["mis.d_used"] = max(extra["mis.d_used"], diag.get("d_used", 0))
        extra["mis.d_raised"] += bool(diag.get("d_raised", False))

    def _after_sampled(self, result, args, kwargs, dt):
        g, eps = args[0], args[1]
        self.sampled_args.append((g.n, g.max_degree, eps,
                                  kwargs.get("estimator_constant", 64),
                                  kwargs.get("force_stop_round")))
        diag = result[2]
        self.extra["fractional.heavy_events"] += diag.heavy_events
        self.extra["fractional.light_events"] += diag.light_events

    def _after_box(self, result, args, kwargs, dt):
        if len(result) == 0:
            self.extra["augmentation.empty_boxes"] += 1

    # -- reporting ------------------------------------------------------

    def analytic_stop_round(self) -> int:
        """Largest stop round the analytic rule gave any sampled call."""
        keys = {a for a in self.sampled_args if a[4] is None}
        sched = self.aw.fractional.SampleSchedule
        return max((sched(max(2, n), max(1, d), eps, c).stop_round
                    for n, d, eps, c, _ in keys), default=0)

    def layer_self_times(self, wall: float):
        """Self time per layer; ``bench`` is the root's own time."""
        out = {layer: 0.0 for layer in LAYERS + ("trace",)}
        for name, t in self.self_t.items():
            out[name.split(".")[0]] += t
        out["bench"] = wall - self.nested_time()
        return out

    def pass_metrics(self, wall: float):
        """Per-layer metrics of one traced pass of wall time ``wall``."""
        c, cum, st, x = self.calls, self.cum, self.self_t, self.extra
        run_s = cum["engine.run"]
        box_calls = c["augmentation.box"]
        m = {
            "graphs.construct_calls": c["graphs.construct"],
            "graphs.construct_s": cum["graphs.construct"],
            "graphs.induced_calls": c["graphs.induced"],
            "graphs.induced_s": cum["graphs.induced"],
            "graphs.adj_arrays_s": cum["graphs.adj_arrays"],
            "rng.scalar_calls": c["rng.scalar"],
            "rng.scalar_s": cum["rng.scalar"],
            "rng.array_calls": c["rng.array"],
            "rng.array_s": cum["rng.array"],
            "engine.run_calls": c["engine.run"],
            "engine.run_s": run_s,
            "engine.self_s": st["engine.run"],
            "engine.deliver_s": cum["engine.deliver"],
            "engine.payload_bits_calls": c["engine.payload_bits"],
            "engine.payload_bits_s": st["engine.payload_bits"],
            "engine.messages": x["engine.messages"],
            "engine.deliveries": x["engine.deliveries"],
            "engine.dropped_at_sleepers": x["engine.dropped_at_sleepers"],
            "engine.awake_node_rounds": x["engine.awake_node_rounds"],
            "engine.node_rounds_per_s": (x["engine.awake_node_rounds"] / run_s
                                         if run_s else 0.0),
            "engine.ledger_merge_calls": c["engine.ledger_merge"],
            "engine.ledger_merge_s": cum["engine.ledger_merge"],
            "engine.delivery_share": cum["engine.deliver"] / wall,
            "mis.hooks_s": st["mis.hooks"],
            "mis.stage1_s": x["mis.stage1_s"],
            "mis.stage2_s": x["mis.stage2_s"],
            "mis.stage3_s": x["mis.stage3_s"],
            "mis.luby_s": x["mis.luby_s"],
            "mis.part1_awake": x["mis.part1_awake"],
            "mis.part2_awake": x["mis.part2_awake"],
            "mis.luby_awake": x["mis.luby_awake"],
            "mis.residual1_n": x["mis.residual1_n"],
            "mis.residual2_n": x["mis.residual2_n"],
            "mis.d_used": x["mis.d_used"],
            "mis.d_raised": x["mis.d_raised"],
            "fractional.vanilla_s": cum["fractional.vanilla"],
            "fractional.sampled_s": cum["fractional.sampled"],
            "fractional.bind_s": cum["fractional.bind"],
            "fractional.hooks_s": st["fractional.hooks"],
            "fractional.tight_checks": c["fractional.tight_check"],
            "fractional.post_s": (cum["fractional.sampled"]
                                  - x["fractional.run_in_sampled_s"]),
            "fractional.rounding_s": cum["fractional.rounding"],
            "fractional.stop_round": self.analytic_stop_round(),
            "fractional.heavy_events": x["fractional.heavy_events"],
            "fractional.light_events": x["fractional.light_events"],
            "augmentation.box_calls": box_calls,
            "augmentation.box_s": cum["augmentation.box"],
            "augmentation.empty_box_ratio": (x["augmentation.empty_boxes"] / box_calls
                                             if box_calls else 0.0),
            "augmentation.layer_graph_s": cum["augmentation.layer_graph"],
            "augmentation.find_paths_s": cum["augmentation.find_paths"],
            "augmentation.augment_s": cum["augmentation.augment"],
            "augmentation.crossing_graph_s": cum["augmentation.crossing_graph"],
            "oracles.verify_calls": c["oracles.verify"],
            "oracles.verify_s": cum["oracles.verify"],
        }
        for layer, t in self.layer_self_times(wall).items():
            m[f"{layer}.self_share"] = t / wall
        return m

    def setup_metrics(self):
        """Per-layer metrics of the traced set-up (graph generation)."""
        return {
            "graphs.gen_s": self.cum["graphs.gen"],
            "rng.setup_calls": self.calls["rng.scalar"],
            "rng.setup_s": self.cum["rng.scalar"],
        }


def _tee(items, sink):
    for item in items:
        sink.append(item)
        yield item
