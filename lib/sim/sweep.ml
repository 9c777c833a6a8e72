(** Parameter-sweep helpers for experiments and benches. *)

(** Cartesian product of two parameter lists. *)
let product xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

let product3 xs ys zs =
  List.concat_map (fun x -> List.map (fun (y, z) -> (x, y, z)) (product ys zs)) xs

(** Geometric range [start, start*factor, ...] not exceeding [stop]. *)
let geometric ~start ~stop ~factor =
  if start <= 0 || stop < start then invalid_arg "Sweep.geometric: bad range";
  if factor <= 1.0 then invalid_arg "Sweep.geometric: factor must exceed 1";
  let rec go acc v =
    if v > stop then List.rev acc
    else
      let next =
        Stdlib.max (v + 1) (int_of_float (Float.round (float_of_int v *. factor)))
      in
      go (v :: acc) next
  in
  go [] start

(** Inclusive arithmetic range with step. *)
let arithmetic ~start ~stop ~step =
  if step <= 0 then invalid_arg "Sweep.arithmetic: step must be positive";
  let rec go acc v = if v > stop then List.rev acc else go (v :: acc) (v + step) in
  go [] start

(** Evenly spaced floats, inclusive of both endpoints. *)
let linspace ~start ~stop ~count =
  if count < 2 then invalid_arg "Sweep.linspace: count must be >= 2";
  List.init count (fun i ->
      start +. ((stop -. start) *. float_of_int i /. float_of_int (count - 1)))

(* ------------------------------------------------------------------ *)
(* Fused single-pass engine sweeps                                     *)
(* ------------------------------------------------------------------ *)

type cell = {
  policy : Policy.t;
  k : int;
  costs : Ccache_cost.Cost_function.t array;
  flush : bool;
  trace : Ccache_trace.Trace.t;
}

let cell ?(flush = false) ~k ~costs policy trace =
  { policy; k; costs; flush; trace }

(* Cells are groupable exactly when they replay the same trace, and
   "same" means physical identity: value equality could conflate
   distinct generator outputs at real cost (an O(T) compare per pair)
   and buys nothing, because sharing only ever arises from callers
   hoisting one trace across cells.  First-touch order of groups, input
   order within a group. *)
let group_indices cells =
  let arr = Array.of_list cells in
  let groups = ref [] in
  Array.iteri
    (fun i c ->
      match List.find_opt (fun (t, _) -> t == c.trace) !groups with
      | Some (_, ixs) -> ixs := i :: !ixs
      | None -> groups := (c.trace, ref [ i ]) :: !groups)
    arr;
  List.rev_map (fun (_, ixs) -> List.rev !ixs) !groups

let fused_scan_span ~cells ~requests f =
  if not (Ccache_obs.Control.enabled ()) then f ()
  else
    Ccache_obs.Span.with_ ~cat:"sweep"
      ~args:
        [
          ("cells", Ccache_obs.Sink.Int cells);
          ("requests", Ccache_obs.Sink.Int requests);
        ]
      "sweep/fused_scan" f

(* One shared scan: init every cell's engine state (sharing one trace
   index across the offline cells), then advance all states in lockstep
   position by position.  Each state is a flat record of arrays, so the
   whole batch stays cache-resident while the trace streams past once. *)
let scan_group cells =
  match cells with
  | [] -> []
  | first :: _ ->
      let trace = first.trace in
      let requests = Ccache_trace.Trace.length trace in
      fused_scan_span ~cells:(List.length cells) ~requests (fun () ->
          let index =
            if List.exists (fun c -> Policy.needs_future c.policy) cells then
              Some (Ccache_trace.Trace.Index.build trace)
            else None
          in
          let states =
            Array.of_list
              (List.map
                 (fun c ->
                   (* only offline cells see the shared index, so each
                      cell's [Policy.Config] matches what a solo
                      [Engine.run] would have built *)
                   let index =
                     if Policy.needs_future c.policy then index else None
                   in
                   Engine.Step.init ~flush:c.flush ?index ~k:c.k ~costs:c.costs
                     c.policy c.trace)
                 cells)
          in
          (* Tiled, not strictly lockstep: each cell replays a block of
             positions before the next cell touches the trace block.
             Cells are independent, so any interleaving that keeps each
             cell's positions in order computes the same results; the
             tile keeps one cell's working set hot for [tile] steps
             while the trace block stays L1-resident, instead of
             reloading every cell's state at every position. *)
          let tile = 4096 in
          let start = ref 0 in
          while !start < requests do
            let stop = Stdlib.min (!start + tile) requests in
            for i = 0 to Array.length states - 1 do
              let st = states.(i) in
              for pos = !start to stop - 1 do
                Engine.Step.step st pos
              done
            done;
            start := stop
          done;
          Array.to_list (Array.map Engine.Step.finish states))

(* Post-scan accounting, in input order: one engine span + the run
   counters per cell, exactly what per-cell [Engine.run]s record, so
   the exports match the solo-run oracle. *)
let record_cell_obs cells results =
  if Ccache_obs.Control.enabled () then
    List.iter2
      (fun c r ->
        Ccache_obs.Span.with_ ~cat:"engine"
          ~args:
            [
              ("policy", Ccache_obs.Sink.Str (Policy.name c.policy));
              ("k", Ccache_obs.Sink.Int c.k);
              ("requests", Ccache_obs.Sink.Int (Ccache_trace.Trace.length c.trace));
            ]
          "engine.run"
          (fun () -> Engine.record_result_obs r))
      cells results

let run_cells ?pool ?chunk cells =
  let arr = Array.of_list cells in
  let groups =
    List.map (fun ixs -> List.map (fun i -> (i, arr.(i))) ixs)
      (group_indices cells)
  in
  let scanned =
    (* groups-vs-cells is an execution detail; keep it out of metrics so
       the exports match per-cell runs byte for byte *)
    Ccache_util.Domain_pool.map_list ?pool ?chunk ~count_blocks:false groups
      ~f:(fun group ->
        let results = scan_group (List.map snd group) in
        List.map2 (fun (i, _) r -> (i, r)) group results)
  in
  let out = Array.make (Array.length arr) None in
  List.iter
    (List.iter (fun (i, r) -> out.(i) <- Some r))
    scanned;
  let results =
    Array.to_list
      (Array.map
         (function Some r -> r | None -> assert false (* every index filled *))
         out)
  in
  record_cell_obs cells results;
  results

(* Split a flat row-major result list back into rows of [width] — the
   inverse of building a grid's cells with [concat_map].  Total length
   must be a multiple of [width]. *)
let rows ~width xs =
  if width <= 0 then invalid_arg "Sweep.rows: width must be positive";
  let rec go acc cur n = function
    | [] ->
        if n <> 0 then invalid_arg "Sweep.rows: ragged input";
        List.rev acc
    | x :: rest ->
        if n + 1 = width then go (List.rev (x :: cur) :: acc) [] 0 rest
        else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 xs

(** The generic point sweep, always supervised: deadlines, retry,
    quarantine, checkpoint replay.
    Each cell's stream is keyed on [(seed, task_id p)] — not on split
    order — so every retry (and every resume) rebuilds the exact
    stream the first attempt saw; convergence to the fault-free output
    follows.  See [Ccache_util.Supervisor] for the failure model. *)
let run_supervised ?pool ?policy ?fault ?checkpoint ?codec ?on_event ~seed
    ~task_id points ~f =
  let module S = Ccache_util.Supervisor in
  let tasks =
    List.map
      (fun p ->
        let id = task_id p in
        {
          S.id;
          run =
            (fun ctx ->
              f ctx (Ccache_util.Prng.derive ~seed ~key:id) p);
        })
      points
  in
  let outcomes = S.run ?pool ?policy ?fault ?checkpoint ?codec ?on_event tasks in
  List.combine points outcomes
