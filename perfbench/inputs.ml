(* Seeded inputs of the trace-driven workloads.  The seed reaches only
   [Workloads.generate]; everything else here is fixed, so one seed
   always gives the same trace, costs and cells. *)

module W = Ccache_trace.Workloads
module Trace = Ccache_trace.Trace
module Tb = Ccache_trace.Trace_binary
module Cf = Ccache_cost.Cost_function
module Policy = Ccache_sim.Policy

let tenants = 4

(* The multi-tenant Zipf spec of the bench/ trace-substrate group
   (bench/main.ml): 4 tenants of 4096 pages each, skew 0.9, equal
   rates.  16384 pages in all, 32x the evicting k. *)
let specs = W.symmetric_zipf ~tenants ~pages_per_tenant:4096 ~skew:0.9

(* Mixed convex costs, the same rotation as the bench/ fixtures:
   monomial, linear, SLA hinge. *)
let costs =
  Array.init tenants (fun i ->
      match i mod 3 with
      | 0 -> Cf.monomial ~beta:2.0 ()
      | 1 -> Cf.linear ~slope:2.0 ()
      | _ -> Ccache_cost.Sla.hinge ~tolerance:100.0 ~penalty_rate:4.0)

(* Cache size of the evicting cells. *)
let evict_k = 512

type cell = { name : string; policy : Policy.t; k : int }

(* Five evicting cells and one all-hit cell whose k covers every
   distinct page.  [check_sizing] enforces both sides. *)
let cells ~n_pages =
  let evict (p : Policy.t) = { name = Policy.name p ^ ".evict"; policy = p; k = evict_k } in
  [
    evict Ccache_policies.Lru.policy;
    evict Ccache_policies.Fifo.policy;
    evict Ccache_policies.Clock.policy;
    evict Ccache_policies.Arc.policy;
    evict Ccache_core.Alg_fast.policy;
    { name = "lru.hit"; policy = Ccache_policies.Lru.policy; k = n_pages };
  ]

let cell_names = List.map (fun c -> c.name) (cells ~n_pages:1)

(* The sizing the bench/ fixtures got wrong (their k=1024 group never
   evicts): evicting cells must see at least 8x their k in distinct
   pages, and the hit cell must hold every page.  Returns the
   violations. *)
let check_sizing ~n_pages cells =
  List.filter_map
    (fun c ->
      if c.name = "lru.hit" then
        if c.k < n_pages then
          Some (Printf.sprintf "hit cell k=%d < %d distinct pages" c.k n_pages)
        else None
      else if n_pages < 8 * c.k then
        Some (Printf.sprintf "%s: %d distinct pages < 8 x k=%d" c.name n_pages c.k)
      else None)
    cells

type phases = {
  gen_s : float;
  write_s : float;
  open_s : float;
  materialize_s : float;
  dense_s : float;
}

type setup = {
  generated : Trace.t;  (** the in-memory trace from the generator *)
  loaded : Trace.t;  (** the same trace after a .ctrace round trip *)
  phases : phases;  (** each phase's fastest time over the set-up repetitions *)
  setup_wall_s : float;  (** the sum of those fastest phase times *)
  setup_s : float;  (** the same, rescaled by the reference kernel *)
}

let total_s p = p.gen_s +. p.write_s +. p.open_s +. p.materialize_s +. p.dense_s

(* Generate, write the .ctrace, open it, materialise it and intern it:
   everything a replay needs before its first request.  Each phase is
   followed by one reference kernel ([Measure.Kernel]). *)
let setup_once ~seed ~length ~path ~kernel =
  let timed name f =
    let r = Tracing.timed name f in
    Measure.sample_rss ();
    Measure.Kernel.sample kernel;
    r
  in
  let generated, gen_s =
    timed "Workloads.generate" (fun () -> W.generate ~seed ~length specs)
  in
  let (), write_s = timed "Trace_binary.write_file" (fun () -> Tb.write_file path generated) in
  let handle, open_s = timed "Trace_binary.open_file" (fun () -> Tb.open_file path) in
  let loaded, materialize_s = timed "Trace_binary.to_trace" (fun () -> Tb.to_trace handle) in
  let _, dense_s = timed "Trace.dense" (fun () -> Trace.dense loaded) in
  (generated, loaded, { gen_s; write_s; open_s; materialize_s; dense_s })

(* Set-up runs a fixed number of times rather than until a deadline:
   the heap then grows the same way in every run, and the resident-set
   peak repeats (with a 2 s deadline it read 35 to 41 MB at one seed). *)
let setup_repetitions = 20

(* Set up [setup_repetitions] times, keeping the last inputs.  Each phase
   keeps its fastest time over the repetitions and set-up time is their
   sum: the per-slot minimum of [Measure.Best], so one slow moment of the
   host does not set the figure.  Each repetition starts from a compacted
   heap and drops the previous traces first. *)
let setup ~seed ~length ~path =
  let kernel = Measure.Kernel.create () in
  let rec go i acc =
    Gc.compact ();
    let (generated, loaded, p), _ =
      Tracing.timed "setup" (fun () -> setup_once ~seed ~length ~path ~kernel)
    in
    if i + 1 < setup_repetitions then go (i + 1) (p :: acc)
    else (generated, loaded, p :: acc)
  in
  let generated, loaded, runs = go 0 [] in
  let least f = List.fold_left (fun m p -> Float.min m (f p)) infinity runs in
  let phases =
    {
      gen_s = least (fun p -> p.gen_s);
      write_s = least (fun p -> p.write_s);
      open_s = least (fun p -> p.open_s);
      materialize_s = least (fun p -> p.materialize_s);
      dense_s = least (fun p -> p.dense_s);
    }
  in
  let setup_wall_s = total_s phases in
  {
    generated;
    loaded;
    phases;
    setup_wall_s;
    setup_s = Measure.Kernel.rescale kernel setup_wall_s;
  }

let trace_layer s =
  let p = s.phases in
  [
    ("trace.gen_s", p.gen_s);
    ("trace.write_s", p.write_s);
    ("trace.open_s", p.open_s);
    ("trace.materialize_s", p.materialize_s);
    ("trace.dense_s", p.dense_s);
    ("trace.pages", float_of_int (Trace.n_pages s.loaded));
    ("trace.requests", float_of_int (Trace.length s.loaded));
  ]

(* Requests per user, for the conservation checks. *)
let requests_per_user trace =
  let a = Array.make (Trace.n_users trace) 0 in
  Array.iter
    (fun p ->
      let u = Ccache_trace.Page.user p in
      a.(u) <- a.(u) + 1)
    (Trace.requests trace);
  a

(* Engine accounting conservation: hits + misses = requests per user,
   evictions never exceed misses, and whatever was inserted and not
   evicted is still cached (within k).  Returns the failed checks'
   descriptions. *)
let conservation ~requests_per_user (r : Ccache_sim.Engine.result) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let misses = Ccache_sim.Engine.misses r and evictions = Ccache_sim.Engine.evictions r in
  if r.hits + misses <> r.trace_length then
    err "%s: hits %d + misses %d <> %d requests" r.policy r.hits misses r.trace_length;
  Array.iteri
    (fun u m ->
      let e = r.evictions_per_user.(u) in
      if m > requests_per_user.(u) || e > m || e < 0 then
        err "%s: user %d has %d requests, %d misses, %d evictions" r.policy u
          requests_per_user.(u) m e)
    r.misses_per_user;
  let cached = List.length r.final_cache in
  if misses - evictions <> cached || cached > r.k then
    err "%s: %d misses - %d evictions <> %d cached (k=%d)" r.policy misses evictions
      cached r.k;
  List.rev !errs
