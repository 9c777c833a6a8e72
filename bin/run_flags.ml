(** The flags every supervised run shares — [experiments],
    [ccache_cli sweep] and [ccache_cli serve] take exactly this set —
    plus the code that turns them into a fault, a supervisor policy, a
    checkpoint and a worker pool, the [[supervisor]] event printer and
    the quarantine report.  Bad values are usage errors (message on
    stderr, exit 2), validated here once for all three commands.

    The observability flags ([--trace-out]/[--metrics-out], with the
    [CCACHE_TRACE] fallback) and [--trace-cache] are also used on
    their own by the commands that run no supervised work.  Recording
    is enabled only when at least one obs output is requested, so the
    default path keeps the zero-overhead-off guarantee (and
    byte-identical reports). *)

open Cmdliner
module U = Ccache_util

let docs = "RUN OPTIONS"
let quarantine_exit = 3

let usage_error fmt =
  Format.kasprintf
    (fun msg ->
      Fmt.epr "%s@." msg;
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Observability and the trace cache                                   *)
(* ------------------------------------------------------------------ *)

type obs = { trace : string option; metrics : string option }

(* Resolve the flags (plus [CCACHE_TRACE]) and flip recording on iff
   any output was requested. *)
let setup_obs trace_out metrics_out =
  let trace =
    match trace_out with
    | Some _ as t -> t
    | None -> Ccache_obs.Control.trace_path_from_env ()
  in
  let cfg = { trace; metrics = metrics_out } in
  if cfg.trace <> None || cfg.metrics <> None then Ccache_obs.Control.enable ();
  cfg

let obs =
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docs ~docv:"FILE"
          ~doc:
            "Record spans and write a Chrome trace-event JSON to $(docv) \
             (load it in chrome://tracing or Perfetto).  Falls back to \
             the $(b,CCACHE_TRACE) environment variable.  Tracing is off \
             (and costs nothing) unless one of the two is set.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docs ~docv:"FILE"
          ~doc:
            "Record counters/gauges/histograms and write the merged \
             snapshot to $(docv): markdown tables if $(docv) ends in \
             .md, flat JSON otherwise.")
  in
  Term.(const setup_obs $ trace_out $ metrics_out)

(** Export whatever was recorded.  Call once, after all worker domains
    have joined (shards are merged at this point). *)
let finish_obs cfg =
  (match cfg.trace with
  | Some path ->
      Ccache_obs.Trace_export.write ~path (Ccache_obs.Span.collect ());
      Fmt.epr "[obs] wrote trace to %s@." path
  | None -> ());
  match cfg.metrics with
  | Some path ->
      let snap = Ccache_obs.Metrics.snapshot () in
      let body =
        if Filename.check_suffix path ".md" then
          Ccache_obs.Metrics_export.to_markdown snap
        else Ccache_obs.Metrics_export.to_json snap
      in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc body);
      Fmt.epr "[obs] wrote metrics to %s@." path
  | None -> ()

let trace_cache =
  Term.(
    const Ccache_trace.Trace_cache.set_dir
    $ Arg.(
        value
        & opt (some string) None
        & info [ "trace-cache" ] ~docs ~docv:"DIR"
            ~doc:
              "Cache generated workload traces as .ctrace binaries under \
               $(docv), keyed by a fingerprint of (seed, length, tenant \
               specs); repeated runs mmap the stored traces instead of \
               regenerating them.  Output is byte-identical either way."))

(* ------------------------------------------------------------------ *)
(* Supervision                                                         *)
(* ------------------------------------------------------------------ *)

type t = {
  jobs : int;
  policy : U.Supervisor.policy;
  fault : U.Fault.t;
  checkpoint_path : string option;
  resume : bool;
  obs : obs;
}

let make_fault chaos kill =
  let base =
    match chaos with
    | Some spec -> (
        match U.Fault.of_spec spec with Ok f -> f | Error e -> usage_error "%s" e)
    | None -> (
        match U.Fault.from_env () with
        | Ok (Some f) -> f
        | Ok None -> U.Fault.none
        | Error e -> usage_error "%s" e)
  in
  if kill = [] then base else U.Fault.kill base kill

(* --retries, --timeout and --backoff set max_retries, timeout_s and
   backoff_base_s; the supervisor's own check names the bad field. *)
let make_policy timeout retries backoff =
  let policy =
    {
      U.Supervisor.default_policy with
      max_retries = retries;
      timeout_s = timeout;
      backoff_base_s = backoff;
    }
  in
  match U.Supervisor.validate_policy policy with
  | () -> policy
  | exception Invalid_argument msg -> usage_error "%s" msg

let make jobs timeout retries backoff chaos kill checkpoint_path resume () obs =
  if jobs < 0 then usage_error "--jobs must be >= 0 (got %d)" jobs;
  if resume && checkpoint_path = None then
    usage_error "--resume requires --checkpoint FILE";
  let policy = make_policy timeout retries backoff in
  { jobs; policy; fault = make_fault chaos kill; checkpoint_path; resume; obs }

let term =
  let default = U.Supervisor.default_policy in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docs ~docv:"N"
          ~doc:
            "Run the tasks on $(docv) worker domains (default 1 = \
             sequential, 0 = one per core, i.e. $(b,CCACHE_JOBS) or the \
             recommended domain count).  Output is identical at every \
             $(docv).")
  in
  let timeout =
    Arg.(
      value & opt (some float) None
      & info [ "timeout" ] ~docs ~docv:"S"
          ~doc:
            "Per-attempt task deadline in seconds; a task past it is \
             retried, then quarantined (default: none).")
  in
  let retries =
    Arg.(
      value & opt int default.U.Supervisor.max_retries
      & info [ "retries" ] ~docs ~docv:"N"
          ~doc:
            "Retry budget for transient faults and deadline misses \
             (default 3).")
  in
  let backoff =
    Arg.(
      value & opt float default.U.Supervisor.backoff_base_s
      & info [ "backoff" ] ~docs ~docv:"S"
          ~doc:
            "Base backoff before the first retry, in seconds; doubles per \
             retry, capped at 1s (default 0.05).  Deterministic and \
             jitter-free.")
  in
  let chaos =
    Arg.(
      value & opt (some string) None
      & info [ "chaos" ] ~docs ~docv:"SEED:RATE"
          ~doc:
            "Deterministic fault injection at task boundaries (transient \
             exceptions and short delays).  Falls back to the \
             $(b,CCACHE_CHAOS) environment variable.  With retries the \
             output is byte-identical to a fault-free run.")
  in
  let kill =
    Arg.(
      value & opt_all string []
      & info [ "kill" ] ~docs ~docv:"ID"
          ~doc:
            "Inject a permanent crash into the task with id $(docv): an \
             experiment ('e2'), a sweep cell ('lru/k=64') or a shard \
             ('shard/1'); repeatable.  The task is quarantined, the rest \
             completes, and the exit code is 3.  An $(docv) that names \
             no task of the run is a usage error (exit 2).")
  in
  let checkpoint =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ] ~docs ~docv:"FILE"
          ~doc:
            "Snapshot completed tasks to $(docv) (atomic writes), making \
             the run resumable.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ] ~docs
          ~doc:
            "Replay tasks already recorded in --checkpoint FILE \
             bit-for-bit and compute only the rest.  Refuses a checkpoint \
             written by a different configuration.")
  in
  Term.(
    const make $ jobs $ timeout $ retries $ backoff $ chaos $ kill $ checkpoint
    $ resume $ trace_cache $ obs)

(** The run's checkpoint, if [--checkpoint] was given: fresh, or with
    [--resume] loaded (a missing file means nothing to resume). *)
let checkpoint t ~fingerprint =
  match t.checkpoint_path with
  | None -> None
  | Some path when t.resume -> (
      match U.Checkpoint.load_or_create ~path ~fingerprint () with
      | Ok ck -> Some ck
      | Error e -> usage_error "cannot resume: %s" e)
  | Some path -> Some (U.Checkpoint.create ~path ~fingerprint ())

(** [f None] at [--jobs 1], else [f (Some pool)] on a pool that is
    joined before this returns.  A [--kill] id that names no task of
    the run is a usage error, raised by the supervisor before any task
    runs. *)
let with_pool t f =
  try
    if t.jobs = 1 then f None
    else
      let size = if t.jobs = 0 then None else Some t.jobs in
      U.Domain_pool.with_pool ?size (fun pool -> f (Some pool))
  with U.Supervisor.Unknown_kill id ->
    usage_error "--kill %s: no task has this id" id

let on_event = function
  | U.Supervisor.Retrying { task; attempt; delay_s; error } ->
      Fmt.epr "[supervisor] %s: attempt %d after %.3fs backoff (%s)@." task
        attempt delay_s error
  | U.Supervisor.Gave_up { task; attempts; error } ->
      Fmt.epr "[supervisor] %s: quarantined after %d attempt(s): %s@." task
        attempts error
  | U.Supervisor.Replayed { task } ->
      Fmt.epr "[supervisor] %s: replayed from checkpoint@." task

(** The exit code for a finished run: 0, or — after a report on
    stderr — 3 when tasks were quarantined. *)
let exit_code t failures =
  if failures = [] then 0
  else begin
    List.iter
      (fun { U.Supervisor.task; attempts; error } ->
        Fmt.epr "quarantined: %s (after %d attempt(s)): %s@." task attempts
          error)
      failures;
    (match t.checkpoint_path with
    | Some p ->
        Fmt.epr
          "partial results checkpointed to %s; rerun with --checkpoint %s \
           --resume to complete@."
          p p
    | None ->
        Fmt.epr "hint: rerun with --checkpoint FILE to make the run resumable@.");
    quarantine_exit
  end
