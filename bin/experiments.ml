(** Regenerate the experiment tables (DESIGN.md Section 4 /
    EXPERIMENTS.md).

    Usage:
      experiments [--full | --quick] [--markdown] [ID ...] [RUN OPTIONS]

    With no IDs, runs the whole suite in DESIGN.md order.  The run
    options are the ones [ccache_cli sweep] and [ccache_cli serve]
    share (see [Run_flags]): [--jobs N] runs the selected experiments
    on N worker domains, and the printed report is byte-identical at
    every job count because outputs are collected first and rendered
    in spec order.

    Every experiment is one supervised task: injected transients and
    deadline misses are retried with deterministic backoff, and a
    permanently-failing experiment is quarantined (its section
    omitted, a report on stderr, exit code 3) while the rest of the
    suite completes.  [--chaos] / CCACHE_CHAOS inject deterministic
    faults for testing; with the default retry budget the report is
    byte-identical to a fault-free run.  [--checkpoint] snapshots
    completed sections atomically; [--resume] replays them
    bit-for-bit. *)

open Cmdliner
module A = Ccache_analysis

let run full quick markdown ids (flags : Run_flags.t) =
  if full && quick then begin
    Fmt.epr "--full and --quick are mutually exclusive@.";
    exit 2
  end;
  let size = if full then A.Experiment.Full else A.Experiment.Quick in
  let fmt = if markdown then A.Report.Markdown else A.Report.Text in
  let specs =
    match ids with
    | [] -> A.Suite.all
    | ids ->
        List.map
          (fun id ->
            match A.Suite.find (String.lowercase_ascii id) with
            | Some s -> s
            | None ->
                Fmt.epr "unknown experiment %S; known: %s@." id
                  (String.concat ", " A.Suite.ids);
                exit 2)
          ids
  in
  let checkpoint =
    Run_flags.checkpoint flags
      ~fingerprint:(A.Report.fingerprint ~fmt ~size specs)
  in
  let { A.Report.report; failures; replayed } =
    Run_flags.with_pool flags (fun pool ->
        A.Report.run_suite ~fmt ?pool ~policy:flags.policy ~fault:flags.fault
          ?checkpoint ~on_event:Run_flags.on_event ~size specs)
  in
  print_string report;
  (* all worker domains have joined: shards are complete *)
  Run_flags.finish_obs flags.obs;
  if replayed <> [] then
    Fmt.epr "[supervisor] replayed %d section(s) from %s@."
      (List.length replayed)
      (Option.value flags.checkpoint_path ~default:"checkpoint");
  Run_flags.exit_code flags failures

let full =
  Arg.(value & flag & info [ "full" ] ~doc:"Full-size runs (EXPERIMENTS.md scale).")

let quick =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Quick-size runs (the default; rejects --full).")

let markdown =
  Arg.(value & flag & info [ "markdown" ] ~doc:"Emit markdown tables.")

let ids =
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (e1..e15).")

let cmd =
  Cmd.v
    (Cmd.info "experiments" ~doc:"Reproduce the convex-caching experiment suite")
    Term.(const run $ full $ quick $ markdown $ ids $ Run_flags.term)

let () = exit (Cmd.eval' cmd)
