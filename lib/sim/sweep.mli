(** Parameter-sweep helpers for experiments and benches. *)

val product : 'a list -> 'b list -> ('a * 'b) list
val product3 : 'a list -> 'b list -> 'c list -> ('a * 'b * 'c) list

val geometric : start:int -> stop:int -> factor:float -> int list
(** Rounded geometric range, strictly increasing, not exceeding
    [stop]. @raise Invalid_argument on a bad range or [factor <= 1]. *)

val arithmetic : start:int -> stop:int -> step:int -> int list
val linspace : start:float -> stop:float -> count:int -> float list

(** {1 Fused single-pass engine sweeps}

    A sweep over (policy, k, costs) cells that share one request trace
    does not need one trace replay per cell: {!run_cells} scans the
    trace once and advances every cell's engine in lockstep through the
    {!Engine.Step} API.  The output is byte-identical to per-cell
    {!Engine.run}s — same results in the same order, same obs metrics
    and engine spans — which the test suite checks against a per-cell
    {!Engine.run} oracle and the CI fused-equivalence job pins end to
    end. *)

type cell = {
  policy : Policy.t;
  k : int;
  costs : Ccache_cost.Cost_function.t array;
  flush : bool;
  trace : Ccache_trace.Trace.t;
}

val cell :
  ?flush:bool ->
  k:int ->
  costs:Ccache_cost.Cost_function.t array ->
  Policy.t ->
  Ccache_trace.Trace.t ->
  cell
(** One engine run's parameters ([flush] defaults to false), mirroring
    {!Engine.run}'s. *)

val group_indices : cell list -> int list list
(** The fused partition: cell indices grouped by *physical* trace
    identity, groups in first-touch order, indices ascending within a
    group.  Cells whose traces are equal but not shared ([==]) land in
    separate groups and fall back to solo scans. *)

val rows : width:int -> 'a list -> 'a list list
(** Split a flat row-major list into rows of [width] — the inverse of
    building a grid's cells with [List.concat_map].
    @raise Invalid_argument if [width <= 0] or the length is not a
    multiple of [width]. *)

val run_cells :
  ?pool:Ccache_util.Domain_pool.t ->
  ?chunk:int ->
  cell list ->
  Engine.result list
(** Run every cell, scanning each distinct (physically shared) trace
    exactly once; results are in input order.  With [?pool], whole
    groups are distributed over the pool's workers ([?chunk] batches
    consecutive groups per task) — the result is identical at every
    width and grain.  A singleton group degenerates to an ordinary
    engine run over its own scan.  Cells must be independent: a cell
    whose trace or costs derive from another cell's result belongs in
    a later [run_cells] call. *)

val run_supervised :
  ?pool:Ccache_util.Domain_pool.t ->
  ?policy:Ccache_util.Supervisor.policy ->
  ?fault:Ccache_util.Fault.t ->
  ?checkpoint:Ccache_util.Checkpoint.t ->
  ?codec:'b Ccache_util.Supervisor.codec ->
  ?on_event:(Ccache_util.Supervisor.event -> unit) ->
  seed:int ->
  task_id:('a -> string) ->
  'a list ->
  f:(Ccache_util.Supervisor.ctx -> Ccache_util.Prng.t -> 'a -> 'b) ->
  ('a * 'b Ccache_util.Supervisor.outcome) list
(** The generic point sweep: [f] runs once per point, on [?pool]'s
    workers when given, under the supervisor — per-cell deadlines and
    cooperative cancellation (the [ctx]), bounded deterministic retry,
    quarantine of permanently-failing cells, fault injection, and
    checkpoint replay ([?checkpoint] requires [?codec]).

    Determinism: each cell's stream is {!Ccache_util.Prng.derive}d from
    [(seed, task_id cell)] — independent of split order, position, and
    attempt number — so a retried (or resumed) cell recomputes exactly
    what an undisturbed first attempt would have, and a run with
    injected transient faults is byte-identical to a fault-free run at
    any pool width.  [task_id] must be injective over [points]
    (duplicate ids raise [Invalid_argument]). *)
