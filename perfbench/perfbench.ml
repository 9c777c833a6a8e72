(* perfbench: the end-to-end benchmark.  See README.md.

   perfbench --workload (replay|replay_obs|serve|suite) --seed N
             --seconds S --trace (0|1)

   Builds its inputs from the seed, times the workload for about S
   seconds, checks every result, and prints one JSON line last:
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.  With
   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones of a traced run, whose benchmark-side spans are
   written to .perfbench/<workload>.spans.json.  Exit code 1 if any check
   failed, 2 on a usage error. *)

let e2e_units =
  [
    ("setup_s", "s");
    ("rep_s", "s");
    ("req_per_s", "req/s");
    ("miss_ratio", "ratio");
    ("alloc_w_per_req", "words/req");
    ("alloc_mw", "Mwords");
    ("peak_rss_mb", "MB");
    ("admit_share", "ratio");
    ("latency_p50_rounds", "rounds");
    ("latency_p999_rounds", "rounds");
  ]

(* Every traced run prints every per-layer metric; a layer the workload
   does not run reads 0. *)
let layer_units =
  let per_cell fmt unit = List.map (fun c -> (Printf.sprintf fmt c, unit)) Inputs.cell_names in
  [
    ("trace.gen_s", "s");
    ("trace.write_s", "s");
    ("trace.open_s", "s");
    ("trace.materialize_s", "s");
    ("trace.dense_s", "s");
    ("trace.pages", "count");
    ("trace.requests", "count");
  ]
  @ per_cell "engine.%s.step_ns" "ns"
  @ per_cell "engine.%s.self_ns" "ns"
  @ [ ("engine.init_s", "s"); ("engine.finish_s", "s") ]
  @ per_cell "policy.%s.handler_ns" "ns"
  @ per_cell "policy.%s.on_hit" "count"
  @ per_cell "policy.%s.on_insert" "count"
  @ per_cell "policy.%s.on_evict" "count"
  @ per_cell "policy.%s.choose_victim" "count"
  @ per_cell "policy.%s.alloc_w_per_req" "words/req"
  @ per_cell "policy.%s.miss_ratio" "ratio"
  @ per_cell "obs.%s.record_ns" "ns"
  @ [
      ("obs.spans", "count");
      ("obs.metric_names", "count");
      ("obs.collect_s", "s");
      ("obs.export_s", "s");
      ("obs.export_bytes", "bytes");
      ("serve.split_s", "s");
      ("serve.plan_s", "s");
      ("serve.merge_s", "s");
      ("serve.rounds", "count");
      ("serve.admitted", "count");
      ("serve.rejected", "count");
      ("serve.stalls", "count");
      ("serve.max_depth", "count");
    ]
  @ List.concat
      (List.init Serve_load.shards (fun i ->
           [
             (Printf.sprintf "serve.shard.%d.busy_s" i, "s");
             (Printf.sprintf "serve.shard.%d.requests" i, "count");
           ]))
  @ List.map (fun id -> (Printf.sprintf "suite.%s.s" id, "s")) Suite_load.ids
  @ [
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("bench.setup_wall_s", "s");
      ("bench.rep_wall_s", "s");
      ("bench.kernel_s", "s");
      ("bench.trace_overhead", "ratio");
    ]

let workloads =
  [
    ("replay", Replay.run_replay);
    ("replay_obs", Replay.run_replay_obs);
    ("serve", Serve_load.run);
    ("suite", Suite_load.run);
  ]

let usage () =
  prerr_endline
    "usage: perfbench --workload (replay|replay_obs|serve|suite) --seed N --seconds S \
     --trace (0|1)";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some traced when List.mem_assoc w workloads && seconds > 0. ->
      (w, seed, seconds, traced)
  | _ -> usage ()

(* %.17g round-trips a double and is valid JSON for finite values. *)
let json_metric (name, unit, value) =
  Printf.sprintf "%s:{\"value\":%.17g,\"unit\":%s}" (Tracing.json_string name) value
    (Tracing.json_string unit)

let () =
  let workload, seed, seconds, traced = parse Sys.argv in
  (* inputs (.ctrace files), obs exports and spans, in the checkout *)
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let out = Outcome.create () in
  if traced then Tracing.start ();
  (match (List.assoc workload workloads) out ~seed ~seconds ~traced ~dir with
  | () -> ()
  | exception e ->
      Outcome.check out [ Printf.sprintf "%s raised %s" workload (Printexc.to_string e) ]);
  Tracing.stop ();
  if traced then Tracing.write_chrome (Filename.concat dir (workload ^ ".spans.json"));
  let units, values = if traced then (layer_units, out.layer) else (e2e_units, out.e2e) in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name values with
          | Some v -> v
          | None when traced -> 0.
          | None ->
              Outcome.check out [ "metric " ^ name ^ " was not measured" ];
              0.
        in
        if not (Float.is_finite v) then begin
          Outcome.check out [ Printf.sprintf "metric %s is not finite" name ];
          (name, unit, 0.)
        end
        else (name, unit, v))
      units
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name units) then
        Outcome.check out [ "undeclared metric " ^ name ])
    values;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (out.failed = 0) (max 1 out.attempted) out.failed
    (String.concat "," (List.map json_metric metrics));
  exit (if out.failed = 0 then 0 else 1)
