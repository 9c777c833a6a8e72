(* Tests for ccache_core: the budget state machine, ALG-DISCRETE and
   its fast implementation, the dual-instrumented ALG-CONT, the
   invariant checker and the Theory formulas. *)

open Ccache_trace
module Engine = Ccache_sim.Engine
module Cf = Ccache_cost.Cost_function
module Bs = Ccache_core.Budget_state
module Alg = Ccache_core.Alg_discrete
module Fast = Ccache_core.Alg_fast
module Cont = Ccache_core.Alg_cont
module Inv = Ccache_core.Invariants
module Theory = Ccache_core.Theory
module Prng = Ccache_util.Prng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

let p u i = Page.make ~user:u ~id:i

(* integer-valued costs make float arithmetic exact, so the reference
   and fast implementations must agree victim-for-victim *)
let int_costs n =
  Array.init n (fun i ->
      match i mod 3 with
      | 0 -> Cf.monomial ~beta:2.0 ()
      | 1 -> Cf.linear ~slope:3.0 ()
      | _ -> Ccache_cost.Sla.hinge ~tolerance:8.0 ~penalty_rate:4.0)

let random_trace ~seed ~users ~pages ~len =
  let rng = Prng.create ~seed in
  Trace.of_list ~n_users:users
    (List.init len (fun _ ->
         Page.make ~user:(Prng.int rng users) ~id:(Prng.int rng pages)))

(* ------------------------------------------------------------------ *)
(* Budget_state: hand-computed Figure 3 arithmetic                     *)
(* ------------------------------------------------------------------ *)

let test_budget_touch_and_min () =
  (* user 0: x^2 (discrete marginal at m=0 is f(1)-f(0)=1);
     user 1: 3x (marginal 3) *)
  let st = Bs.create ~costs:(int_costs 2) ~mode:Cf.Discrete ~n_users:2 () in
  Bs.touch st (p 0 0);
  Bs.touch st (p 1 0);
  checkb "B(a) = 1" true (Bs.budget st (p 0 0) = Some 1.0);
  checkb "B(b) = 3" true (Bs.budget st (p 1 0) = Some 3.0);
  let victim, b = Bs.min_budget st in
  checkb "min is cheap user" true (Page.equal victim (p 0 0));
  checkf "min value" 1.0 b;
  checki "cached" 2 (Bs.cached_count st)

let test_budget_evict_updates () =
  (* cache: a0 (user0, x^2), b0 (user0), c1 (user1, 3x).
     Evict a0 (B=1): delta=1, user0 bump = marginal(2)-marginal(1) = 3-1 = 2.
     b0: 1 - 1 + 2 = 2.  c1: 3 - 1 = 2. *)
  let st = Bs.create ~costs:(int_costs 2) ~mode:Cf.Discrete ~n_users:2 () in
  Bs.touch st (p 0 0);
  Bs.touch st (p 0 1);
  Bs.touch st (p 1 0);
  let delta = Bs.evict st (p 0 0) in
  checkf "delta is victim budget" 1.0 delta;
  checkb "same-user page bumped" true (Bs.budget st (p 0 1) = Some 2.0);
  checkb "other user decayed" true (Bs.budget st (p 1 0) = Some 2.0);
  checki "m(user0)" 1 (Bs.evictions st 0);
  checki "m(user1)" 0 (Bs.evictions st 1);
  (* next touch of user 0 uses the new marginal f(2)-f(1) = 3 *)
  Bs.touch st (p 0 2);
  checkb "fresh budget at new marginal" true (Bs.budget st (p 0 2) = Some 3.0)

(* The eviction above (a0, b0 of user 0 and c1 of user 1 cached; a0
   with B=1 evicted) with each E9 ablation switch off, then a window
   restart. *)
let test_budget_ablations_and_restart () =
  let evicted ?bump ?subtract () =
    let st =
      Bs.create ?bump ?subtract ~costs:(int_costs 2) ~mode:Cf.Discrete
        ~n_users:2 ()
    in
    List.iter (Bs.touch st) [ p 0 0; p 0 1; p 1 0 ];
    checkf "delta" 1.0 (Bs.evict st (p 0 0));
    st
  in
  let nobump = evicted ~bump:false () in
  checkb "no bump: b0 only decays" true (Bs.budget nobump (p 0 1) = Some 0.0);
  checkb "no bump: c1 decays" true (Bs.budget nobump (p 1 0) = Some 2.0);
  let nosub = evicted ~subtract:false () in
  checkb "no subtract: b0 only bumped" true (Bs.budget nosub (p 0 1) = Some 3.0);
  checkb "no subtract: c1 kept" true (Bs.budget nosub (p 1 0) = Some 3.0);
  let st = evicted () in
  Bs.restart st;
  checki "restart zeroes m" 0 (Bs.evictions st 0);
  checkb "b0 back at f'(1)" true (Bs.budget st (p 0 1) = Some 1.0);
  checkb "c1 back at f'(1)" true (Bs.budget st (p 1 0) = Some 3.0);
  checki "contents kept" 2 (Bs.cached_count st)

let test_budget_min_tie_break () =
  let st = Bs.create ~costs:(int_costs 2) ~mode:Cf.Discrete ~n_users:2 () in
  Bs.touch st (p 0 5);
  Bs.touch st (p 0 2);
  (* equal budgets: smaller page id wins *)
  checkb "tie by page order" true (Page.equal (fst (Bs.min_budget st)) (p 0 2))

let test_budget_analytic_mode () =
  let st = Bs.create ~costs:(int_costs 1) ~mode:Cf.Analytic ~n_users:1 () in
  Bs.touch st (p 0 0);
  (* f = x^2, analytic f'(m+1) = f'(1) = 2 *)
  checkb "analytic rate" true (Bs.budget st (p 0 0) = Some 2.0)

let test_budget_errors () =
  let st = Bs.create ~costs:(int_costs 1) ~mode:Cf.Discrete ~n_users:1 () in
  Alcotest.check_raises "empty min"
    (Invalid_argument "Budget_state.min_budget: empty cache") (fun () ->
      ignore (Bs.min_budget st));
  Alcotest.check_raises "evict uncached"
    (Invalid_argument "Budget_state.evict: victim not cached") (fun () ->
      ignore (Bs.evict st (p 0 0)))

(* ------------------------------------------------------------------ *)
(* ALG-DISCRETE behaviour                                              *)
(* ------------------------------------------------------------------ *)

let test_alg_prefers_evicting_cheap_user () =
  (* user 0 linear slope 3 is pricier than user 1's hinge in its free
     region: the hinge user's page is evicted first *)
  let costs = [| Cf.linear ~slope:3.0 (); Ccache_cost.Sla.hinge ~tolerance:5.0 ~penalty_rate:10.0 |] in
  let t = Trace.of_list ~n_users:2 [ p 0 0; p 1 0; p 0 1 ] in
  let _, log = Engine.run_logged ~k:2 ~costs Alg.policy t in
  let victims =
    List.filter_map (function Engine.Miss_evict { victim; _ } -> Some victim | _ -> None) log
  in
  checkb "free-region page evicted" true (victims = [ p 1 0 ])

let test_alg_protects_user_near_cliff () =
  (* hinge tolerance 2: after 3 misses the user is past the cliff and
     its marginal dwarfs the linear user's; ALG shifts evictions to the
     linear user while LRU keeps hammering both *)
  let costs =
    [| Ccache_cost.Sla.hinge ~tolerance:2.0 ~penalty_rate:50.0; Cf.linear ~slope:1.0 () |]
  in
  let t =
    Workloads.generate ~seed:5 ~length:2000
      [
        Workloads.tenant (Workloads.Zipf { pages = 30; skew = 0.7 });
        Workloads.tenant (Workloads.Zipf { pages = 30; skew = 0.7 });
      ]
  in
  let alg = Engine.run ~k:10 ~costs Alg.policy t in
  let lru = Engine.run ~k:10 ~costs Ccache_policies.Lru.policy t in
  let cost r = Ccache_sim.Metrics.total_cost ~costs r in
  checkb "ALG cheaper than LRU under SLA" true (cost alg < cost lru)

let test_alg_linear_equal_weights_reasonable () =
  (* with identical linear costs ALG has no cost signal to exploit;
     sanity: it stays within 2x of LRU's misses on a zipf trace *)
  let costs = [| Cf.linear ~slope:1.0 () |] in
  let t =
    Workloads.generate ~seed:6 ~length:2000
      [ Workloads.tenant (Workloads.Zipf { pages = 40; skew = 0.9 }) ]
  in
  let alg = Engine.run ~k:10 ~costs Alg.policy t in
  let lru = Engine.run ~k:10 ~costs Ccache_policies.Lru.policy t in
  checkb "within 2x of LRU" true
    (Engine.misses alg <= 2 * Engine.misses lru)

let test_alg_variant_names () =
  checkb "default" true (Ccache_sim.Policy.name Alg.policy = "alg-discrete");
  checkb "analytic" true
    (Ccache_sim.Policy.name Alg.analytic = "alg-discrete[analytic]");
  checkb "nobump" true (Ccache_sim.Policy.name Alg.no_bump = "alg-discrete[nobump]");
  checkb "nosubtract" true
    (Ccache_sim.Policy.name Alg.no_subtract = "alg-discrete[nosubtract]")

let test_alg_ablations_run_and_differ () =
  let costs = int_costs 3 in
  let t = random_trace ~seed:77 ~users:3 ~pages:30 ~len:1500 in
  let full = Engine.run ~k:8 ~costs Alg.policy t in
  let nosub = Engine.run ~k:8 ~costs Alg.no_subtract t in
  checkb "ablation changes behaviour" true
    (Engine.misses full <> Engine.misses nosub
     || full.Engine.misses_per_user <> nosub.Engine.misses_per_user)

(* ------------------------------------------------------------------ *)
(* fast = reference equivalence                                        *)
(* ------------------------------------------------------------------ *)

let fast_equals_reference =
  QCheck.Test.make ~name:"alg-fast identical to reference (integer costs)"
    ~count:60
    QCheck.(triple (int_range 1 24) (int_range 1 4) small_nat)
    (fun (k, users, seed) ->
      let costs = int_costs users in
      let t = random_trace ~seed:(seed + 1) ~users ~pages:20 ~len:400 in
      let a, la = Engine.run_logged ~k ~costs Alg.policy t in
      let b, lb = Engine.run_logged ~k ~costs Fast.policy t in
      a.Engine.misses_per_user = b.Engine.misses_per_user
      && a.Engine.evictions_per_user = b.Engine.evictions_per_user
      && List.length la = List.length lb
      && List.for_all2
           (fun x y ->
             match (x, y) with
             | Engine.Miss_evict { victim = v1; _ }, Engine.Miss_evict { victim = v2; _ }
               ->
                 Page.equal v1 v2
             | Engine.Hit _, Engine.Hit _ | Engine.Miss_insert _, Engine.Miss_insert _
               ->
                 true
             | _ -> false)
           la lb)

let fast_equals_reference_flush =
  QCheck.Test.make ~name:"alg-fast identical under flush" ~count:30
    QCheck.(pair (int_range 2 16) small_nat)
    (fun (k, seed) ->
      let costs = int_costs 2 in
      let t = random_trace ~seed:(seed + 100) ~users:2 ~pages:15 ~len:200 in
      let a = Engine.run ~flush:true ~k ~costs Alg.policy t in
      let b = Engine.run ~flush:true ~k ~costs Fast.policy t in
      a.Engine.evictions_per_user = b.Engine.evictions_per_user)

(* ALG-CONT makes the same decisions as the engine-driven policy, with
   and without the terminal flush *)
let cont_equals_discrete =
  QCheck.Test.make ~name:"alg-cont mirrors alg-discrete" ~count:40
    QCheck.(quad (int_range 1 16) (int_range 1 3) small_nat bool)
    (fun (k, users, seed, flush) ->
      let costs = int_costs users in
      let t = random_trace ~seed:(seed + 7) ~users ~pages:18 ~len:300 in
      let r = Engine.run ~flush ~k ~costs Alg.policy t in
      let c = Cont.run ~flush ~k ~costs t in
      r.Engine.misses_per_user = c.Cont.misses_per_user
      && r.Engine.evictions_per_user = c.Cont.final_m
      && r.Engine.final_cache = c.Cont.result_cache)

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)
(* ------------------------------------------------------------------ *)

let invariants_hold =
  QCheck.Test.make ~name:"invariants hold on random traces (flushed)" ~count:40
    QCheck.(quad (int_range 1 16) (int_range 1 3) (int_range 0 1) small_nat)
    (fun (k, users, mode, seed) ->
      let costs = int_costs users in
      let mode = if mode = 0 then Cf.Discrete else Cf.Analytic in
      let t = random_trace ~seed:(seed + 13) ~users ~pages:15 ~len:250 in
      let _, report = Inv.run_and_check ~mode ~flush:true ~k ~costs t in
      Inv.ok report)

let test_invariants_unflushed_live_form () =
  let costs = int_costs 2 in
  let t = random_trace ~seed:42 ~users:2 ~pages:20 ~len:500 in
  let _, report = Inv.run_and_check ~flush:false ~k:8 ~costs t in
  checkb "live-form invariants hold" true (Inv.ok report)

let test_invariants_report_fields () =
  let costs = int_costs 1 in
  let t = Trace.of_list ~n_users:1 [ p 0 0; p 0 1; p 0 0; p 0 2 ] in
  let run, report = Inv.run_and_check ~flush:true ~k:2 ~costs t in
  checki "intervals = requests" 4 report.Inv.checked_intervals;
  checkb "no failures" true (Inv.ok report);
  (* y only increases at evictions *)
  let evictions = Array.fold_left (fun acc v -> if v > 0.0 then acc + 1 else acc) 0 run.Cont.y in
  checkb "y positive exactly at evictions" true (evictions >= 1)

(* the checker actually detects violations: corrupt a run's y *)
let test_invariants_detect_corruption () =
  let costs = int_costs 1 in
  let t = Trace.of_list ~n_users:1 [ p 0 0; p 0 1; p 0 0; p 0 2; p 0 1 ] in
  let run = Cont.run ~flush:true ~k:2 ~costs t in
  (* negate one y entry: breaks (1c) and downstream conditions *)
  let broken = ref false in
  Array.iteri
    (fun i v ->
      if (not !broken) && v > 0.0 then begin
        run.Cont.y.(i) <- -.v;
        broken := true
      end)
    run.Cont.y;
  checkb "corruption detected" false (Inv.ok (Inv.check run))

(* ------------------------------------------------------------------ *)
(* Windowed variant                                                    *)
(* ------------------------------------------------------------------ *)

let test_windowed_matches_plain_within_first_window () =
  (* before the first boundary the variant is the plain algorithm *)
  let costs = int_costs 2 in
  let t = random_trace ~seed:91 ~users:2 ~pages:20 ~len:200 in
  let plain = Engine.run ~k:8 ~costs Alg.policy t in
  let windowed =
    Engine.run ~k:8 ~costs (Ccache_core.Alg_windowed.make ~window:10_000 ()) t
  in
  checkb "identical within one window" true
    (plain.Engine.misses_per_user = windowed.Engine.misses_per_user)

let test_windowed_resets_change_behaviour () =
  let costs = [| Cf.monomial ~beta:2.0 (); Cf.monomial ~beta:2.0 () |] in
  let t = random_trace ~seed:92 ~users:2 ~pages:30 ~len:2000 in
  let plain = Engine.run ~k:8 ~costs Alg.policy t in
  let windowed =
    Engine.run ~k:8 ~costs (Ccache_core.Alg_windowed.make ~window:100 ()) t
  in
  checkb "resets alter decisions" true
    (plain.Engine.misses_per_user <> windowed.Engine.misses_per_user)

let test_windowed_validation () =
  Alcotest.check_raises "bad window"
    (Invalid_argument "Alg_windowed.make: window must be positive") (fun () ->
      ignore (Ccache_core.Alg_windowed.make ~window:0 ()))

(* ------------------------------------------------------------------ *)
(* Fractional (BBN) algorithm                                          *)
(* ------------------------------------------------------------------ *)

module Frac = Ccache_core.Alg_fractional

let test_fractional_feasible_and_deterministic () =
  let t = random_trace ~seed:55 ~users:2 ~pages:30 ~len:800 in
  let costs = [| Cf.linear ~slope:1.0 (); Cf.linear ~slope:4.0 () |] in
  let a = Frac.run ~k:8 ~costs t in
  let b = Frac.run ~k:8 ~costs t in
  checkb "deterministic" true (a = b);
  checkb "constraints stayed tight" true (a.Frac.max_overflow < 1e-6);
  checkb "movement non-negative" true (a.Frac.movement_cost >= 0.0);
  Array.iter
    (fun m -> checkb "misses non-negative" true (m >= 0.0))
    a.Frac.fractional_misses

let test_fractional_fits_in_cache_no_movement () =
  (* working set of 5 pages, k = 8: after compulsory misses nothing is
     ever evicted *)
  let t = random_trace ~seed:56 ~users:1 ~pages:5 ~len:300 in
  let costs = [| Cf.linear ~slope:1.0 () |] in
  let r = Frac.run ~k:8 ~costs t in
  checkb "no movement" true (r.Frac.movement_cost < 1e-9);
  checkb "only compulsory misses" true
    (Float.abs (r.Frac.fractional_misses.(0) -. 5.0) < 1e-9)

let test_fractional_beats_determinism_on_nemesis () =
  let k = 16 in
  let t =
    Workloads.generate ~seed:57 ~length:4000 (Workloads.lru_nemesis ~k)
  in
  let costs = [| Cf.linear ~slope:1.0 () |] in
  let frac = Frac.run ~k ~costs t in
  let lru = Engine.run ~k ~costs Ccache_policies.Lru.policy t in
  let belady = Engine.run ~k ~costs Ccache_policies.Belady.policy t in
  let opt = float_of_int (Engine.misses belady) in
  (* fractional within ln k + 1 of offline; LRU pays ~k times *)
  checkb "fractional near ln k" true
    (frac.Frac.movement_cost <= (log (float_of_int k) +. 1.5) *. opt);
  checkb "lru pays much more" true
    (float_of_int (Engine.misses lru) > 3.0 *. frac.Frac.movement_cost)

(* cross-library tie: the fractional run's primal is a feasible point
   of the unflushed (CP) the dual solver reasons about *)
let fractional_is_cp_feasible =
  QCheck.Test.make ~name:"fractional run is CP-feasible" ~count:25
    QCheck.(pair (int_range 2 10) small_nat)
    (fun (k, seed) ->
      let costs = [| Cf.linear ~slope:1.0 (); Cf.linear ~slope:3.0 () |] in
      let t = random_trace ~seed:(seed + 41) ~users:2 ~pages:(k + 6) ~len:150 in
      let r = Frac.run ~k ~costs t in
      let cp =
        Ccache_cp.Formulation.of_trace ~flush:false ~k ~cache_size:k ~costs t
      in
      (* map interval-start positions to variable indices *)
      let x = Array.make (Ccache_cp.Formulation.n_vars cp) 0.0 in
      Array.iteri
        (fun vi v ->
          match
            List.assoc_opt v.Ccache_cp.Formulation.start_pos r.Frac.solution
          with
          | Some mass -> x.(vi) <- mass
          | None -> ())
        cp.Ccache_cp.Formulation.vars;
      let feas = Ccache_cp.Formulation.check_feasible ~tol:1e-6 cp x in
      feas.Ccache_cp.Formulation.feasible)

let test_fractional_validation () =
  let t = random_trace ~seed:58 ~users:1 ~pages:5 ~len:10 in
  Alcotest.check_raises "bad k"
    (Invalid_argument "Alg_fractional.run: k must be positive") (fun () ->
      ignore (Frac.run ~k:0 ~costs:[| Cf.linear ~slope:1.0 () |] t));
  Alcotest.check_raises "costs mismatch"
    (Invalid_argument "Alg_fractional.run: costs/users mismatch") (fun () ->
      ignore (Frac.run ~k:2 ~costs:[||] t))

(* ------------------------------------------------------------------ *)
(* Theory                                                              *)
(* ------------------------------------------------------------------ *)

let test_theory_bounds () =
  checkf "cor12 beta=1" 8.0 (Theory.cor12_bound ~beta:1.0 ~k:8);
  checkf "cor12 beta=2" 256.0 (Theory.cor12_bound ~beta:2.0 ~k:8);
  checkf "thm14 curve" 4.0 (Theory.thm14_curve ~beta:2.0 ~k:8);
  let costs = [| Cf.monomial ~beta:2.0 (); Cf.linear ~slope:5.0 () |] in
  checkf "alpha of costs" 2.0 (Theory.alpha_of_costs costs)

let test_theory_thm11_rhs () =
  let costs = [| Cf.monomial ~beta:2.0 () |] in
  (* f(alpha k b) = (2*4*3)^2 = 576 *)
  checkf "rhs" 576.0 (Theory.thm11_rhs ~alpha:2.0 ~costs ~k:4 [| 3 |]);
  let check = Theory.check_thm11 ~alpha:2.0 ~costs ~k:4 ~a:[| 10 |] ~b:[| 3 |] () in
  checkb "holds" true check.Theory.holds;
  checkf "lhs" 100.0 check.Theory.lhs;
  let fails = Theory.check_thm11 ~alpha:2.0 ~costs ~k:4 ~a:[| 100 |] ~b:[| 1 |] () in
  checkb "violation detected" false fails.Theory.holds

let test_theory_thm13_rhs () =
  let costs = [| Cf.linear ~slope:1.0 () |] in
  (* stretch = 1 * 8/(8-4+1) = 1.6; rhs = 1.6 * 5 = 8 *)
  checkf "rhs" 8.0 (Theory.thm13_rhs ~alpha:1.0 ~costs ~k:8 ~h:4 [| 5 |]);
  Alcotest.check_raises "h > k"
    (Invalid_argument "Theory.thm13_rhs: need 0 < h <= k") (fun () ->
      ignore (Theory.thm13_rhs ~costs ~k:4 ~h:5 [| 1 |]))

let claim23_random =
  QCheck.Test.make ~name:"Claim 2.3 on random convex f and sequences" ~count:200
    QCheck.(pair (float_range 1.0 3.5) (list_of_size (Gen.int_range 1 25) (float_range 0.0 4.0)))
    (fun (beta, xs) ->
      let f = Cf.monomial ~beta () in
      let xs = Array.of_list xs in
      Theory.claim23_holds f xs && Theory.claim23_inner_holds f xs)

let claim23_piecewise =
  QCheck.Test.make ~name:"Claim 2.3 inner inequality for hinge costs" ~count:100
    QCheck.(pair (int_range 0 10) (list_of_size (Gen.int_range 1 20) (float_range 0.0 3.0)))
    (fun (tol, xs) ->
      let f = Ccache_cost.Sla.hinge ~tolerance:(float_of_int tol) ~penalty_rate:2.0 in
      Theory.claim23_inner_holds f (Array.of_list xs))

(* Regression: seed 777, trial 1156 of the E7b stress test, pinned
   bit-exact.  A *real-valued* sequence against a hinge cost violates
   Claim 2.3 under the integer-restricted alpha: [Cf.alpha] for
   piecewise-linear costs is a supremum over integer sequences only
   (over the reals the ratio is unbounded near the kink).  This
   witness documents why E7b draws integer sequences for hinge costs;
   the claim must keep failing on it as stated, while the inner
   inequality (6) — which is domain-independent — and the
   integer-rounded witness must both hold. *)
let test_claim23_seed777_trial1156 () =
  let f =
    Ccache_cost.Sla.hinge ~tolerance:0x1.4p+2 (* 5 *)
      ~penalty_rate:0x1.172da369d9dc6p+2 (* 4.362160542841087 *)
  in
  let xs =
    [| 0x1.2486c8e4dd9abp-1; 0x1.0aecf0363115dp+2; 0x1.31dc1863aeffdp-1 |]
  in
  checkb "real-valued witness violates the integer-alpha claim" false
    (Theory.claim23_holds f xs);
  checkb "inner inequality still holds on the witness" true
    (Theory.claim23_inner_holds f xs);
  checkb "integer-rounded witness satisfies the claim" true
    (Theory.claim23_holds f (Array.map Float.round xs))

(* Theorem 1.1 holds end-to-end on random instances, with best-of as b *)
let thm11_end_to_end =
  QCheck.Test.make ~name:"Theorem 1.1 end-to-end on random traces" ~count:15
    QCheck.(pair (int_range 2 12) small_nat)
    (fun (k, seed) ->
      let costs = int_costs 2 in
      let t = random_trace ~seed:(seed + 31) ~users:2 ~pages:16 ~len:300 in
      let r = Engine.run ~k ~costs Alg.policy t in
      let off =
        Ccache_offline.Best_of.compute ~local_search_rounds:0 ~cache_size:k ~costs t
      in
      let check =
        Theory.check_thm11 ~costs ~k ~a:r.Engine.misses_per_user
          ~b:off.Ccache_offline.Best_of.misses_per_user ()
      in
      check.Theory.holds)

(* Theorem 1.3 end-to-end: random traces, offline restricted to h < k *)
let thm13_end_to_end =
  QCheck.Test.make ~name:"Theorem 1.3 end-to-end on random traces" ~count:12
    QCheck.(triple (int_range 4 12) (int_range 1 4) small_nat)
    (fun (k, h_off, seed) ->
      let h = Stdlib.max 1 (k - h_off) in
      let costs = int_costs 2 in
      let t = random_trace ~seed:(seed + 61) ~users:2 ~pages:16 ~len:250 in
      let r = Engine.run ~k ~costs Alg.policy t in
      let off =
        Ccache_offline.Best_of.compute ~local_search_rounds:0 ~cache_size:h ~costs t
      in
      let check =
        Theory.check_thm13 ~costs ~k ~h ~a:r.Engine.misses_per_user
          ~b:off.Ccache_offline.Best_of.misses_per_user ()
      in
      check.Theory.holds)

(* invariants also hold on phased/churn traces (working-set resets) *)
let invariants_hold_on_churn =
  QCheck.Test.make ~name:"invariants hold on churn traces" ~count:10
    QCheck.(pair (int_range 4 20) small_nat)
    (fun (k, seed) ->
      let day =
        [
          Workloads.tenant (Workloads.Zipf { pages = 20; skew = 0.9 });
          Workloads.tenant (Workloads.Uniform { pages = 15 });
        ]
      in
      let phases = Workloads.day_night ~day ~night_tenants:1 ~phase_length:120 ~cycles:2 in
      let t = Workloads.generate_phases ~seed:(seed + 3) phases in
      let costs = int_costs 2 in
      let _, report = Inv.run_and_check ~flush:true ~k ~costs t in
      Inv.ok report)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ccache_core"
    [
      ( "budget_state",
        [
          Alcotest.test_case "touch/min" `Quick test_budget_touch_and_min;
          Alcotest.test_case "evict updates" `Quick test_budget_evict_updates;
          Alcotest.test_case "ablations and restart" `Quick
            test_budget_ablations_and_restart;
          Alcotest.test_case "tie break" `Quick test_budget_min_tie_break;
          Alcotest.test_case "analytic mode" `Quick test_budget_analytic_mode;
          Alcotest.test_case "errors" `Quick test_budget_errors;
        ] );
      ( "alg_discrete",
        [
          Alcotest.test_case "evicts cheap user" `Quick test_alg_prefers_evicting_cheap_user;
          Alcotest.test_case "protects SLA cliff" `Quick test_alg_protects_user_near_cliff;
          Alcotest.test_case "linear sanity" `Quick test_alg_linear_equal_weights_reasonable;
          Alcotest.test_case "variant names" `Quick test_alg_variant_names;
          Alcotest.test_case "ablations differ" `Quick test_alg_ablations_run_and_differ;
        ] );
      ( "equivalence",
        qsuite [ fast_equals_reference; fast_equals_reference_flush; cont_equals_discrete ] );
      ( "invariants",
        [
          Alcotest.test_case "unflushed live form" `Quick test_invariants_unflushed_live_form;
          Alcotest.test_case "report fields" `Quick test_invariants_report_fields;
          Alcotest.test_case "detects corruption" `Quick test_invariants_detect_corruption;
        ]
        @ qsuite [ invariants_hold ] );
      ( "windowed",
        [
          Alcotest.test_case "plain within first window" `Quick
            test_windowed_matches_plain_within_first_window;
          Alcotest.test_case "resets change behaviour" `Quick
            test_windowed_resets_change_behaviour;
          Alcotest.test_case "validation" `Quick test_windowed_validation;
        ] );
      ( "fractional",
        [
          Alcotest.test_case "feasible + deterministic" `Quick
            test_fractional_feasible_and_deterministic;
          Alcotest.test_case "fits: no movement" `Quick
            test_fractional_fits_in_cache_no_movement;
          Alcotest.test_case "beats determinism on nemesis" `Quick
            test_fractional_beats_determinism_on_nemesis;
          Alcotest.test_case "validation" `Quick test_fractional_validation;
        ]
        @ qsuite [ fractional_is_cp_feasible ] );
      ( "theory",
        [
          Alcotest.test_case "bounds" `Quick test_theory_bounds;
          Alcotest.test_case "thm11 rhs" `Quick test_theory_thm11_rhs;
          Alcotest.test_case "thm13 rhs" `Quick test_theory_thm13_rhs;
          Alcotest.test_case "claim 2.3 seed777/trial1156 regression" `Quick
            test_claim23_seed777_trial1156;
        ]
        @ qsuite
            [
              claim23_random; claim23_piecewise; thm11_end_to_end;
              thm13_end_to_end; invariants_hold_on_churn;
            ] );
    ]
