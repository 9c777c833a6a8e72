(** Rendering experiment outputs as text or markdown (EXPERIMENTS.md
    regeneration), and the one suite runner. *)

type format = Text | Markdown

val render_output : format -> Experiment.output -> string
val run_and_render : ?fmt:format -> size:Experiment.size -> Experiment.t -> string

type suite = {
  report : string;
      (** completed sections concatenated in spec order — byte-identical
          at every pool width, and to a fault-free run whatever faults
          were injected and retried along the way *)
  failures : Ccache_util.Supervisor.failure list;
      (** quarantined experiments, in spec order *)
  replayed : string list;  (** ids served from the checkpoint *)
}

val fingerprint :
  fmt:format -> size:Experiment.size -> Experiment.t list -> string
(** Single-line digest of everything that affects section bytes (format,
    size, spec ids) — the {!Ccache_util.Checkpoint} fingerprint for
    suite runs. *)

val run_suite :
  ?fmt:format ->
  ?pool:Ccache_util.Domain_pool.t ->
  ?policy:Ccache_util.Supervisor.policy ->
  ?fault:Ccache_util.Fault.t ->
  ?checkpoint:Ccache_util.Checkpoint.t ->
  ?on_event:(Ccache_util.Supervisor.event -> unit) ->
  size:Experiment.size ->
  Experiment.t list ->
  suite
(** Run and render a suite, one supervised task per experiment (see
    [Ccache_util.Supervisor] for the failure model); with no optional
    argument that is the supervisor's defaults — no fault, no deadline,
    no checkpoint.  With [?pool] the experiments execute concurrently
    and the report is still byte-identical to the sequential one.
    Rendering happens inside each task, so with [?checkpoint] the
    snapshot stores each section's final bytes and a later resume
    replays them verbatim — the checkpoint must have been created with
    {!fingerprint} for this exact configuration. *)
