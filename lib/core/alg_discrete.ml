(** ALG-DISCRETE (paper Figure 3) as an engine policy — the paper's
    primary contribution.

    Reference implementation: O(k) per eviction via the budget sweep of
    {!Budget_state}.  For the O(log k) variant see {!Alg_fast};
    equivalence of the two is property-tested.  The ablation switches
    of experiment E9 are {!Budget_state}'s; both on is the paper's
    algorithm. *)

module Policy = Ccache_sim.Policy
module Cf = Ccache_cost.Cost_function
open Ccache_trace

(* Candidate-set buckets: occupancy at an eviction is bounded by k. *)
let candidate_bounds =
  [| 4.0; 16.0; 64.0; 256.0; 1024.0; 4096.0; 16384.0; 65536.0 |]

(* Decision telemetry for one eviction: the candidate set the budget
   sweep scanned, the marginal-cost draw [delta] charged to the
   victim's owner, and whether the same-owner bump rule fired.  Only
   reached when recording is on. *)
let record_evict ~name ~pos ~candidates ~bumped victim delta =
  let module M = Ccache_obs.Metrics in
  M.incr (name ^ "/evictions");
  M.observe (name ^ "/charge") delta;
  M.observe
    (name ^ "/charge/user" ^ string_of_int (Page.user victim))
    delta;
  M.observe ~bounds:candidate_bounds (name ^ "/candidates")
    (float_of_int candidates);
  if bumped then M.incr (name ^ "/owner-bumps");
  Ccache_obs.Span.instant ~cat:"alg"
    ~args:
      [
        ("pos", Ccache_obs.Sink.Int pos);
        ("owner", Ccache_obs.Sink.Int (Page.user victim));
        ("charge", Ccache_obs.Sink.Float delta);
        ("candidates", Ccache_obs.Sink.Int candidates);
      ]
    (name ^ "/evict")

let make ?(mode = Cf.Discrete) ?(bump = true) ?(subtract = true) name =
  Policy.make ~name (fun config ->
      let st =
        Budget_state.create ~bump ~subtract ~costs:config.Policy.Config.costs
          ~mode ~n_users:config.Policy.Config.n_users ()
      in
      {
        Policy.on_hit = (fun ~pos:_ page -> Budget_state.touch st page);
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ -> fst (Budget_state.min_budget st));
        on_insert = (fun ~pos:_ page -> Budget_state.touch st page);
        on_evict =
          (fun ~pos victim ->
            let obs = Ccache_obs.Control.enabled () in
            (* candidate set = cached pages at decision time (the
               victim is still in the budget table here) *)
            let candidates = if obs then Budget_state.cached_count st else 0 in
            let delta = Budget_state.evict st victim in
            if obs then
              record_evict ~name ~pos ~candidates ~bumped:bump victim delta);
      })

(** The paper's algorithm with discrete marginals (Section 2.5). *)
let policy = make "alg-discrete"

(** The paper's algorithm with analytic derivatives f'. *)
let analytic = make ~mode:Cf.Analytic "alg-discrete[analytic]"

(** Ablation: no same-owner marginal bump. *)
let no_bump = make ~bump:false "alg-discrete[nobump]"

(** Ablation: no uniform budget decay (greedy marginal-cost eviction). *)
let no_subtract = make ~subtract:false "alg-discrete[nosubtract]"
