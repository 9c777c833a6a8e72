(* The [serve] workload: Service.run on one domain (no pool) over a
   trace of the replay shape, overloaded so that queues fill and the
   Reject policy sheds load. *)

module Service = Ccache_serve.Service
module Scheduler = Ccache_serve.Scheduler
module Router = Ccache_serve.Router
module Shard = Ccache_serve.Shard
module Engine = Ccache_sim.Engine
module Trace = Ccache_trace.Trace
module Best = Measure.Best

(* 10^5 requests keep one Service.run near 50 ms, so a run takes its
   minimum over hundreds of reps: at 2.5x10^5 (0.11 s a call) one run
   in ten sat in a slow host phase for its whole length and read 60 %
   high. *)
let length = 100_000
let shards = 4
let shard_k = 128

(* 8 clients x 2 requests per round offered against 4 shards x 3
   drained per round: 16 > 12, so queues (cap 16) fill, requests wait
   and some are rejected. *)
let config =
  Service.config ~clients:8 ~client_rate:2 ~overload:Scheduler.Reject ~batch:3
    ~queue_cap:16 ~router:(Router.by_page ~shards) ~shard_k ()

(* The parts of a result a rerun must reproduce exactly. *)
let fingerprint (r : Service.result) =
  let s = r.schedule in
  ( (s.rounds, s.admitted, s.rejected, s.stalls),
    Array.map (fun (ss : Scheduler.shard_schedule) -> (ss.pages, ss.waits, ss.rejected)) s.shards,
    r.engines,
    r.misses_per_user,
    r.hits,
    r.total_cost )

let checks out ~attempted (r : Service.result) =
  let s = r.schedule in
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 in
  Outcome.check out
    (List.filter_map Fun.id
       [
         (if s.admitted + s.rejected = attempted && Service.requests r = attempted then None
          else
            Some
              (Printf.sprintf "serve: admitted %d + rejected %d <> %d attempted" s.admitted
                 s.rejected attempted));
         (let served = sum (fun (e : Engine.result) -> e.trace_length) r.engines in
          if served = s.admitted then None
          else Some (Printf.sprintf "serve: shards served %d <> %d admitted" served s.admitted));
         (let m = sum Engine.misses r.engines in
          if m = Service.misses r then None
          else Some (Printf.sprintf "serve: merged misses %d <> shard sum %d" (Service.misses r) m));
       ])

let waits (r : Service.result) =
  let w =
    Array.concat
      (Array.to_list
         (Array.map (fun (ss : Scheduler.shard_schedule) -> ss.waits) r.schedule.shards))
  in
  Array.sort compare w;
  w

let run out ~seed ~seconds ~traced ~dir =
  let path = Filename.concat dir (Printf.sprintf "serve-%d.ctrace" seed) in
  let s = Inputs.setup ~seed ~length ~path in
  let trace = s.loaded in
  let costs = Inputs.costs in
  let attempted = Trace.length trace in
  (* shard sizing, as for the replay cells: every shard's share of the
     pages is at least 8x its k *)
  let plan = Service.plan config trace in
  Array.iter
    (fun (ss : Scheduler.shard_schedule) ->
      let distinct = List.length (List.sort_uniq compare (Array.to_list ss.pages)) in
      Outcome.expect out (distinct >= 8 * shard_k)
        (Printf.sprintf "serve: shard %d sees %d distinct pages < 8 x k=%d" ss.shard
           distinct shard_k))
    plan.shards;
  let reference = Service.run config ~costs s.generated in
  Measure.sample_rss ();
  checks out ~attempted reference;
  let expected = fingerprint reference in
  Tracing.stop ();
  let best = Best.create 1 and kernel = Measure.Kernel.create () in
  let words = ref [] and gc = ref (0, 0) in
  let untraced_seconds = if traced then seconds /. 2. else seconds in
  let nreps =
    Measure.for_seconds ~seconds:untraced_seconds (fun _ ->
        Gc.full_major ();
        let (r, dt), d =
          Measure.gc_delta (fun () ->
              Tracing.timed "Service.run" (fun () -> Service.run config ~costs trace))
        in
        Best.update best 0 dt;
        Measure.sample_rss ();
        Measure.Kernel.sample kernel;
        words := d.words :: !words;
        gc := (d.minor_gcs, d.major_gcs);
        checks out ~attempted r;
        Outcome.expect out (fingerprint r = expected)
          "serve: result differs from the run on the generated trace")
  in
  let rep_wall_s = Best.sum best in
  let rep_s = Measure.Kernel.rescale kernel rep_wall_s in
  let words = List.fold_left Float.min infinity !words in
  let admitted = reference.schedule.admitted in
  let w = waits reference in
  Outcome.log
    "serve: %d reps, rep %.4f s wall, %.4f s rescaled (kernel %.5f s), admitted %d/%d, \
     rounds %d"
    nreps rep_wall_s rep_s kernel.best admitted attempted reference.schedule.rounds;
  Outcome.e2e out
    [
      ("setup_s", s.setup_s);
      ("rep_s", rep_s);
      ("req_per_s", float_of_int admitted /. rep_s);
      ("miss_ratio", float_of_int (Service.misses reference) /. float_of_int admitted);
      ("alloc_w_per_req", words /. float_of_int attempted);
      ("alloc_mw", words /. 1e6);
      ("peak_rss_mb", Measure.peak_rss_mb ());
      ("admit_share", float_of_int admitted /. float_of_int attempted);
      (* logical latency: rounds queued plus the round that serves it *)
      ("latency_p50_rounds", float_of_int (Measure.percentile w 0.5 + 1));
      ("latency_p999_rounds", float_of_int (Measure.percentile w 0.999 + 1));
    ];
  if traced then begin
    Tracing.start ();
    let split = Best.create 1 and planb = Best.create 1 and service_run = Best.create 1 in
    let busy = Best.create shards in
    let n_users = Trace.n_users trace in
    ignore
      (Measure.for_seconds ~seconds:(seconds /. 2.) (fun _ ->
           Gc.full_major ();
           let _, dt =
             Tracing.timed "Router.split" (fun () -> Router.split config.sched.router trace)
           in
           Best.update split 0 dt;
           let (sched, t_plan) =
             Tracing.timed "Service.plan" (fun () -> Service.plan config trace)
           in
           Best.update planb 0 t_plan;
           let misses =
             Array.fold_left
               (fun acc (ss : Scheduler.shard_schedule) ->
                 let r, dt =
                   Tracing.timed
                     (Printf.sprintf "Shard.run_schedule %d" ss.shard)
                     (fun () ->
                       Shard.run_schedule ~k:shard_k ~costs ~policy:config.policy ~n_users ss)
                 in
                 Best.update busy ss.shard dt;
                 acc + Engine.misses r)
               0 sched.shards
           in
           let r, dt = Tracing.timed "Service.run" (fun () -> Service.run config ~costs trace) in
           Best.update service_run 0 dt;
           Outcome.expect out (misses = Service.misses r)
             (Printf.sprintf "serve: merged misses %d <> Shard.run_schedule sum %d"
                (Service.misses r) misses)));
    let sch = reference.schedule in
    Outcome.layer out (Inputs.trace_layer s);
    Outcome.layer out
      ([
         ("serve.split_s", Best.sum split);
         ("serve.plan_s", Best.sum planb);
         (* what Service.run spends outside planning and the shards *)
         ("serve.merge_s", Best.sum service_run -. Best.sum planb -. Best.sum busy);
         ("serve.rounds", float_of_int sch.rounds);
         ("serve.admitted", float_of_int sch.admitted);
         ("serve.rejected", float_of_int sch.rejected);
         ("serve.stalls", float_of_int sch.stalls);
         ( "serve.max_depth",
           float_of_int
             (Array.fold_left (fun m (ss : Scheduler.shard_schedule) -> max m ss.max_depth) 0
                sch.shards) );
       ]
      @ List.concat
          (List.init shards (fun i ->
               [
                 (Printf.sprintf "serve.shard.%d.busy_s" i, busy.(i));
                 ( Printf.sprintf "serve.shard.%d.requests" i,
                   float_of_int (Array.length sch.shards.(i).pages) );
               ])));
    Outcome.layer out
      ([
         ("gc.minor_collections", float_of_int (fst !gc));
         ("gc.major_collections", float_of_int (snd !gc));
       ]
      @ Measure.bench_layer ~setup_wall_s:s.setup_wall_s ~rep_wall_s ~kernel
          ~overhead:(Best.sum service_run /. rep_wall_s))
  end;
  Sys.remove path
