(* The [replay] and [replay_obs] workloads: one trace replayed through a
   fixed set of cells, with observability off and on. *)

module Engine = Ccache_sim.Engine
module Step = Engine.Step
module Policy = Ccache_sim.Policy
module Trace = Ccache_trace.Trace
module Page = Ccache_trace.Page
module Best = Measure.Best

(* A rep (every cell over the trace) lasts about half a second, so a
   20 s run samples each timed slot some forty times: host slow phases
   last tens of seconds, and a slot's minimum is only steady when it was
   measured often enough to catch a quiet moment. *)
let replay_length = 250_000

(* replay_obs replays the first fifth of that trace (generation is
   sequential, so the shorter trace is a prefix): alg-fast records one
   span per eviction, and export dominates the rep. *)
let obs_length = 50_000

(* Each pass over the trace is timed in this many blocks of positions. *)
let blocks = 16

(* ------------------------------------------------------------------ *)
(* Policy layer, seen from outside: a wrapper made with Policy.make      *)
(* counts the handler calls and logs their sequence; replaying the log   *)
(* against a fresh instance then times the handlers without the engine.  *)
(* ------------------------------------------------------------------ *)

(* Per-position call pattern, in the engine's order. *)
let c_unset = '\255'
let c_hit = '\000' (* on_hit *)
let c_insert = '\001' (* on_insert *)
let c_keep_insert = '\002' (* wants_evict = false, on_insert *)
let c_evict = '\003' (* choose_victim, on_evict, on_insert *)
let c_force_evict = '\004' (* wants_evict = true, choose_victim, on_evict, on_insert *)

type call_log = {
  codes : Bytes.t;
  mutable victims : int array;
  mutable n_victims : int;
  mutable on_hit : int;
  mutable on_insert : int;
  mutable on_evict : int;
  mutable choose_victim : int;
}

let call_log n =
  {
    codes = Bytes.make n c_unset;
    victims = Array.make 1024 0;
    n_victims = 0;
    on_hit = 0;
    on_insert = 0;
    on_evict = 0;
    choose_victim = 0;
  }

let push_victim l v =
  if l.n_victims = Array.length l.victims then begin
    let a = Array.make (2 * l.n_victims) 0 in
    Array.blit l.victims 0 a 0 l.n_victims;
    l.victims <- a
  end;
  l.victims.(l.n_victims) <- v;
  l.n_victims <- l.n_victims + 1

let logging l (policy : Policy.t) =
  Policy.make ~name:(Policy.name policy) (fun config ->
      let h = Policy.instantiate policy config in
      let mark pos c = if Bytes.get l.codes pos = c_unset then Bytes.set l.codes pos c in
      {
        Policy.on_hit =
          (fun ~pos page ->
            l.on_hit <- l.on_hit + 1;
            Bytes.set l.codes pos c_hit;
            h.on_hit ~pos page);
        wants_evict =
          (fun ~pos ~incoming ->
            let r = h.wants_evict ~pos ~incoming in
            Bytes.set l.codes pos (if r then c_force_evict else c_keep_insert);
            r);
        choose_victim =
          (fun ~pos ~incoming ->
            l.choose_victim <- l.choose_victim + 1;
            mark pos c_evict;
            let v = h.choose_victim ~pos ~incoming in
            push_victim l (Page.pack v);
            v);
        on_evict =
          (fun ~pos page ->
            l.on_evict <- l.on_evict + 1;
            h.on_evict ~pos page);
        on_insert =
          (fun ~pos page ->
            l.on_insert <- l.on_insert + 1;
            mark pos c_insert;
            h.on_insert ~pos page);
      })

(* Replay the logged calls against a fresh instance, block by block;
   returns the number of calls whose answer differs from the log. *)
let replay_handlers ~best l (c : Inputs.cell) trace =
  let h =
    Tracing.timed ("Policy.instantiate " ^ c.name) (fun () ->
        Policy.instantiate c.policy (Policy.Config.make ~k:c.k ~costs:Inputs.costs ()))
    |> fst
  in
  let req = Trace.requests trace in
  let n = Array.length req in
  let vi = ref 0 and bad = ref 0 in
  let victim pos page =
    let v = h.choose_victim ~pos ~incoming:page in
    if !vi >= l.n_victims || Page.pack v <> l.victims.(!vi) then incr bad;
    incr vi;
    h.on_evict ~pos v;
    h.on_insert ~pos page
  in
  let name = "policy handlers " ^ c.name in
  for b = 0 to blocks - 1 do
    let lo = b * n / blocks and hi = (b + 1) * n / blocks in
    let (), dt =
      Tracing.timed name (fun () ->
          for pos = lo to hi - 1 do
            let page = req.(pos) in
            let code = Bytes.get l.codes pos in
            if code = c_hit then h.on_hit ~pos page
            else if code = c_insert then h.on_insert ~pos page
            else if code = c_keep_insert then begin
              if h.wants_evict ~pos ~incoming:page then incr bad;
              h.on_insert ~pos page
            end
            else if code = c_evict then victim pos page
            else if code = c_force_evict then begin
              if not (h.wants_evict ~pos ~incoming:page) then incr bad;
              victim pos page
            end
            else incr bad
          done)
    in
    Best.update best b dt
  done;
  if !vi <> l.n_victims then incr bad;
  !bad

(* ------------------------------------------------------------------ *)
(* Timed passes                                                         *)
(* ------------------------------------------------------------------ *)

(* One cell of a run: its slot minima, its reference result and, in
   traced runs, the handler-call log with the handler replay's minima. *)
type cell_run = {
  cell : Inputs.cell;
  reference : Engine.result;
  steps : Best.t;  (** one slot per block of positions *)
  init : Best.t;
  finish : Best.t;
  log : call_log option;
  handlers : Best.t;
  mutable handler_words : float;
}

let cell_run ?log cell reference =
  {
    cell;
    reference;
    steps = Best.create blocks;
    init = Best.create 1;
    finish = Best.create 1;
    log;
    handlers = Best.create blocks;
    handler_words = infinity;
  }

let estimate cr = Best.sum cr.steps +. Best.sum cr.init +. Best.sum cr.finish
let sum_estimates runs = List.fold_left (fun acc cr -> acc +. estimate cr) 0. runs

(* What [Engine.run] records after a run while obs is on; the same call
   the fused sweep driver makes. *)
let record_run_obs (c : Inputs.cell) trace r =
  if Ccache_obs.Control.enabled () then
    Ccache_obs.Span.with_ ~cat:"engine"
      ~args:
        [
          ("policy", Ccache_obs.Sink.Str (Policy.name c.policy));
          ("k", Ccache_obs.Sink.Int c.k);
          ("requests", Ccache_obs.Sink.Int (Trace.length trace));
        ]
      "engine.run"
      (fun () -> Engine.record_result_obs r)

(* One [Engine.run] of the cell, spelt as its own init + step loop +
   finish so that each block of positions is timed on its own. *)
let pass cr trace =
  let c = cr.cell in
  let st, dt =
    Tracing.timed ("Engine.Step.init " ^ c.name) (fun () ->
        Step.init ~k:c.k ~costs:Inputs.costs c.policy trace)
  in
  Best.update cr.init 0 dt;
  let n = Trace.length trace in
  let name = "Engine.Step.step " ^ c.name in
  for b = 0 to blocks - 1 do
    let lo = b * n / blocks and hi = (b + 1) * n / blocks in
    let (), dt =
      Tracing.timed name (fun () ->
          for pos = lo to hi - 1 do
            Step.step st pos
          done)
    in
    Best.update cr.steps b dt
  done;
  let r, dt =
    Tracing.timed ("Engine.Step.finish " ^ c.name) (fun () ->
        let r = Step.finish st in
        record_run_obs c trace r;
        r)
  in
  Best.update cr.finish 0 dt;
  r

(* Timed reps: every cell, one pass each, from a freshly collected
   major heap so every rep starts from the same GC state.  A cell with a
   call log also replays its handlers right after its pass, so engine
   and handlers are sampled equally often under the same host
   conditions.  Every cell pass is followed by one reference kernel
   sampled into [kernel].  Returns the rep count, the fewest minor words the
   engine passes of a rep allocated (reps repeat them exactly once
   warm) and the GC counts of the last rep. *)
let reps out ~seconds ~kernel ?(after_rep = fun _ -> ()) runs trace =
  let words = ref [] in
  let gc = ref None in
  let n =
    Measure.for_seconds ~seconds (fun rep ->
        let total = ref 0. and minor = ref 0 and major = ref 0 in
        Gc.full_major ();
        List.iter
          (fun cr ->
            let r, d = Measure.gc_delta (fun () -> pass cr trace) in
            Measure.sample_rss ();
            Measure.Kernel.sample kernel;
            total := !total +. d.words;
            minor := !minor + d.minor_gcs;
            major := !major + d.major_gcs;
            Outcome.expect out (r = cr.reference)
              (Printf.sprintf "%s: result differs from Engine.run on the generated trace"
                 cr.cell.name);
            match cr.log with
            | None -> ()
            | Some l ->
                let bad, d =
                  Measure.gc_delta (fun () -> replay_handlers ~best:cr.handlers l cr.cell trace)
                in
                cr.handler_words <- Float.min cr.handler_words d.words;
                Outcome.expect out (bad = 0)
                  (Printf.sprintf "%s: %d handler answers differ on replay" cr.cell.name bad))
          runs;
        after_rep rep;
        words := !total :: !words;
        gc := Some (!minor, !major))
  in
  let words = List.rev !words in
  if List.exists (fun w -> w <> List.hd words) words then
    Outcome.log "note: minor words differ across reps: %s"
      (String.concat " " (List.map (Printf.sprintf "%.0f") words));
  (n, List.fold_left Float.min infinity words, Option.get !gc)

(* Reference results: plain [Engine.run] on the generated in-memory
   trace, checked for conservation.  Every timed pass over the loaded
   trace must reproduce them exactly. *)
let references out (s : Inputs.setup) cells =
  let rpu = Inputs.requests_per_user s.generated in
  Outcome.expect out
    (Trace.requests s.generated = Trace.requests s.loaded)
    "the .ctrace round trip changed the request sequence";
  List.map
    (fun (c : Inputs.cell) ->
      let r = Engine.run ~k:c.k ~costs:Inputs.costs c.policy s.generated in
      Measure.sample_rss ();
      Outcome.check out (Inputs.conservation ~requests_per_user:rpu r);
      (c, r))
    cells

(* A traced cell: one counting pass through the logging wrapper, whose
   result must match the reference too. *)
let logged_run out trace ((c : Inputs.cell), reference) =
  let l = call_log (Trace.length trace) in
  let r, _ =
    Tracing.timed ("Engine.run (counting) " ^ c.name) (fun () ->
        Engine.run ~k:c.k ~costs:Inputs.costs (logging l c.policy) trace)
  in
  Outcome.expect out (r = reference)
    (Printf.sprintf "%s: counting run differs from the reference" c.name);
  cell_run ~log:l c reference

(* Engine and policy layer metrics of traced cells. *)
let cell_layers runs trace =
  let fn = float_of_int (Trace.length trace) in
  let ns best = Best.sum best /. fn *. 1e9 in
  List.concat_map
    (fun cr ->
      let l = Option.get cr.log in
      let key layer m = Printf.sprintf "%s.%s.%s" layer cr.cell.name m in
      let step_ns = ns cr.steps and handler_ns = ns cr.handlers in
      [
        (key "engine" "step_ns", step_ns);
        (key "engine" "self_ns", step_ns -. handler_ns);
        (key "policy" "handler_ns", handler_ns);
        (key "policy" "on_hit", float_of_int l.on_hit);
        (key "policy" "on_insert", float_of_int l.on_insert);
        (key "policy" "on_evict", float_of_int l.on_evict);
        (key "policy" "choose_victim", float_of_int l.choose_victim);
        (key "policy" "alloc_w_per_req", cr.handler_words /. fn);
        (key "policy" "miss_ratio", Engine.miss_ratio cr.reference);
      ])
    runs
  @ [
      ("engine.init_s", List.fold_left (fun a cr -> a +. Best.sum cr.init) 0. runs);
      ("engine.finish_s", List.fold_left (fun a cr -> a +. Best.sum cr.finish) 0. runs);
    ]

let gc_layer (minor, major) =
  [ ("gc.minor_collections", float_of_int minor); ("gc.major_collections", float_of_int major) ]

let print_cells ~label ~n runs =
  List.iter
    (fun cr ->
      Outcome.log "%-12s %-26s step %8.1f ns/req  miss_ratio %.4f" label cr.cell.name
        (Best.sum cr.steps *. 1e9 /. float_of_int n)
        (Engine.miss_ratio cr.reference))
    runs

(* End-to-end figures shared by both replay workloads: a rep is one
   pass of every cell. *)
let e2e_metrics ~setup_s ~rep_s ~n runs ~words =
  let requests = float_of_int (n * List.length runs) in
  let misses = List.fold_left (fun acc cr -> acc + Engine.misses cr.reference) 0 runs in
  [
    ("setup_s", setup_s);
    ("rep_s", rep_s);
    ("req_per_s", requests /. rep_s);
    ("miss_ratio", float_of_int misses /. requests);
    ("alloc_w_per_req", words /. requests);
    ("alloc_mw", words /. 1e6);
    ("peak_rss_mb", Measure.peak_rss_mb ());
    (* a replay serves every request in its own step: nothing is shed
       and nothing waits *)
    ("admit_share", 1.0);
    ("latency_p50_rounds", 1.0);
    ("latency_p999_rounds", 1.0);
  ]

let prepare out ~seed ~length ~dir ~name =
  let path = Filename.concat dir (Printf.sprintf "%s-%d.ctrace" name seed) in
  let s = Inputs.setup ~seed ~length ~path in
  let n_pages = Trace.n_pages s.loaded in
  let cells = Inputs.cells ~n_pages in
  Outcome.check out (Inputs.check_sizing ~n_pages cells);
  (path, s, references out s cells)

let run_replay out ~seed ~seconds ~traced ~dir =
  let path, s, refs = prepare out ~seed ~length:replay_length ~dir ~name:"replay" in
  let trace = s.loaded in
  let n = Trace.length trace in
  let runs = List.map (fun (c, r) -> cell_run c r) refs in
  Tracing.stop ();
  let kernel = Measure.Kernel.create () in
  let nreps, words, gc =
    reps out ~seconds:(if traced then seconds /. 2. else seconds) ~kernel runs trace
  in
  let rep_wall_s = sum_estimates runs in
  let rep_s = Measure.Kernel.rescale kernel rep_wall_s in
  Outcome.log "replay: %d reps, rep %.4f s wall, %.4f s rescaled (kernel %.5f s)" nreps
    rep_wall_s rep_s kernel.best;
  print_cells ~label:"replay" ~n runs;
  Outcome.e2e out (e2e_metrics ~setup_s:s.setup_s ~rep_s ~n runs ~words);
  if traced then begin
    Tracing.start ();
    let truns = List.map (logged_run out trace) refs in
    ignore (reps out ~seconds:(seconds /. 2.) ~kernel:(Measure.Kernel.create ()) truns trace);
    Outcome.layer out (Inputs.trace_layer s);
    Outcome.layer out (cell_layers truns trace);
    Outcome.layer out (gc_layer gc);
    Outcome.layer out
      (Measure.bench_layer ~setup_wall_s:s.setup_wall_s ~rep_wall_s ~kernel
         ~overhead:(sum_estimates truns /. rep_wall_s))
  end;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* replay_obs                                                           *)
(* ------------------------------------------------------------------ *)

module Obs = Ccache_obs

type obs_slots = { collect : Best.t; export : Best.t }

let run_replay_obs out ~seed ~seconds ~traced ~dir =
  let path, s, refs = prepare out ~seed ~length:obs_length ~dir ~name:"replay_obs" in
  let trace = s.loaded in
  let n = Trace.length trace in
  let trace_out = Filename.concat dir "replay_obs.obs-trace.json" in
  let metrics_out = Filename.concat dir "replay_obs.obs-metrics.json" in
  let export_bytes = ref 0 and metric_names = ref 0 in
  (* Per rep: fresh sinks, every cell with recording on, then collect and
     export the way --trace-out / --metrics-out do.  Returns the span
     count, which every rep must repeat. *)
  let obs_reps ~seconds ~kernel runs slots =
    let span_counts = ref [] in
    let collect_export rep =
      let (spans, snap), dt =
        Tracing.timed "Span.collect + Metrics.snapshot" (fun () ->
            let spans = Obs.Span.collect () in
            (spans, Obs.Metrics.snapshot ()))
      in
      Best.update slots.collect 0 dt;
      let (), dt =
        Tracing.timed "Trace_export.write + Metrics_export.write" (fun () ->
            Obs.Trace_export.write ~path:trace_out spans;
            Obs.Metrics_export.write ~path:metrics_out snap)
      in
      Best.update slots.export 0 dt;
      Measure.sample_rss ();
      span_counts := List.length spans :: !span_counts;
      metric_names :=
        List.length snap.counters + List.length snap.gauges + List.length snap.hists;
      export_bytes :=
        (Unix.stat trace_out).Unix.st_size + (Unix.stat metrics_out).Unix.st_size;
      Obs.Metrics.reset ();
      Outcome.log "replay_obs: rep %d, %d spans, RSS %.0f MB after reset" rep
        (List.length spans) (Measure.rss_mb ())
    in
    Obs.Metrics.reset ();
    Obs.Control.enable ();
    let r = reps out ~seconds ~kernel ~after_rep:collect_export runs trace in
    Obs.Control.disable ();
    let spans = List.hd !span_counts in
    Outcome.expect out
      (spans > 0 && List.for_all (( = ) spans) !span_counts)
      (Printf.sprintf "replay_obs: span counts differ across reps or are zero: %s"
         (String.concat " " (List.map string_of_int !span_counts)));
    (r, spans)
  in
  let slots () = { collect = Best.create 1; export = Best.create 1 } in
  let rep_estimate runs sl = sum_estimates runs +. Best.sum sl.collect +. Best.sum sl.export in
  let runs = List.map (fun (c, r) -> cell_run c r) refs and sl = slots () in
  Tracing.stop ();
  (* traced runs split the time three ways: obs off (for
     obs.<cell>.record_ns), obs on untraced, obs on traced *)
  let part = if traced then seconds /. 3. else seconds in
  let off_runs = List.map (fun (c, r) -> cell_run c r) refs in
  if traced then
    ignore (reps out ~seconds:part ~kernel:(Measure.Kernel.create ()) off_runs trace);
  let kernel = Measure.Kernel.create () in
  let (nreps, words, gc), spans = obs_reps ~seconds:part ~kernel runs sl in
  let rep_wall_s = rep_estimate runs sl in
  let rep_s = Measure.Kernel.rescale kernel rep_wall_s in
  Outcome.log
    "replay_obs: %d reps, rep %.4f s wall (cells %.4f, collect %.4f, export %.4f), %.4f s \
     rescaled (kernel %.5f s)"
    nreps rep_wall_s (sum_estimates runs) (Best.sum sl.collect) (Best.sum sl.export) rep_s
    kernel.best;
  print_cells ~label:"replay_obs" ~n runs;
  Outcome.e2e out (e2e_metrics ~setup_s:s.setup_s ~rep_s ~n runs ~words);
  if traced then begin
    (* obs figures describe the untraced obs-on reps: the traced reps
       also record from the handler replays *)
    let obs_layer =
      [
        ("obs.spans", float_of_int spans);
        ("obs.metric_names", float_of_int !metric_names);
        ("obs.collect_s", Best.sum sl.collect);
        ("obs.export_s", Best.sum sl.export);
        ("obs.export_bytes", float_of_int !export_bytes);
      ]
      @ List.map2
          (fun on off ->
            ( Printf.sprintf "obs.%s.record_ns" on.cell.name,
              (Best.sum on.steps -. Best.sum off.steps) /. float_of_int n *. 1e9 ))
          runs off_runs
    in
    Tracing.start ();
    Obs.Control.enable ();
    let truns = List.map (logged_run out trace) refs in
    Obs.Control.disable ();
    let tsl = slots () in
    ignore (obs_reps ~seconds:part ~kernel:(Measure.Kernel.create ()) truns tsl);
    Outcome.layer out (Inputs.trace_layer s);
    Outcome.layer out (cell_layers truns trace);
    Outcome.layer out obs_layer;
    Outcome.layer out (gc_layer gc);
    Outcome.layer out
      (Measure.bench_layer ~setup_wall_s:s.setup_wall_s ~rep_wall_s ~kernel
         ~overhead:(rep_estimate truns tsl /. rep_wall_s))
  end;
  Sys.remove path
