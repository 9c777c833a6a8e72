(* Tests for ccache_lb: the Theorem 1.4 adversary and driver. *)

open Ccache_trace
module Adv = Ccache_lb.Adversary
module T4 = Ccache_lb.Theorem4
module Cf = Ccache_cost.Cost_function

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let mono_costs ~beta n = Array.init n (fun _ -> Cf.monomial ~beta ())

let test_adversary_structure () =
  let n = 6 in
  let costs = mono_costs ~beta:2.0 n in
  let adv = Adv.drive ~n_users:n ~steps:100 ~costs Ccache_policies.Lru.policy in
  checki "k = n-1" (n - 1) adv.Adv.k;
  checki "trace length = warmup + steps" (n - 1 + 100) (Trace.length adv.Adv.trace);
  (* one page per user *)
  List.iter
    (fun q -> checki "page id 0" 0 (Page.id q))
    (Trace.distinct_pages adv.Adv.trace);
  (* every adversarial request is a miss: total misses = T *)
  let total = Array.fold_left ( + ) 0 adv.Adv.online_misses in
  checki "all requests miss" (Trace.length adv.Adv.trace) total

let test_adversary_forces_all_policies () =
  let n = 5 in
  let costs = mono_costs ~beta:1.0 n in
  List.iter
    (fun policy ->
      let adv = Adv.drive ~n_users:n ~steps:60 ~costs policy in
      let total = Array.fold_left ( + ) 0 adv.Adv.online_misses in
      checki
        (Ccache_sim.Policy.name policy ^ " all miss")
        (Trace.length adv.Adv.trace) total)
    [
      Ccache_policies.Lru.policy;
      Ccache_policies.Fifo.policy;
      Ccache_policies.Marking.policy;
      Ccache_policies.Landlord.adaptive;
      Ccache_core.Alg_discrete.policy;
      Ccache_core.Alg_fast.policy;
    ]

let test_adversary_rejects_offline () =
  let costs = mono_costs ~beta:1.0 4 in
  Alcotest.check_raises "offline rejected"
    (Invalid_argument "Adversary.drive: offline policies cannot be driven adaptively")
    (fun () ->
      ignore (Adv.drive ~n_users:4 ~steps:10 ~costs Ccache_policies.Belady.policy))

let test_adversary_validation () =
  let costs = mono_costs ~beta:1.0 1 in
  Alcotest.check_raises "needs 2 users"
    (Invalid_argument "Adversary.drive: need at least 2 users") (fun () ->
      ignore (Adv.drive ~n_users:1 ~steps:10 ~costs Ccache_policies.Lru.policy))

(* The adversary's counts are what a plain engine replay of the trace
   it induced gives: the adaptive run and the fixed-trace run make the
   same decisions, for every online policy. *)
let adversary_matches_engine =
  QCheck.Test.make ~name:"adversary counts = engine replay" ~count:20
    QCheck.(triple (int_range 2 12) (int_range 0 80) bool)
    (fun (n, steps, quadratic) ->
      let costs = mono_costs ~beta:(if quadratic then 2.0 else 1.0) n in
      List.for_all
        (fun policy ->
          let adv = Adv.drive ~n_users:n ~steps ~costs policy in
          let r =
            Ccache_sim.Engine.run ~k:adv.Adv.k ~costs policy adv.Adv.trace
          in
          r.Ccache_sim.Engine.misses_per_user = adv.Adv.online_misses
          && r.Ccache_sim.Engine.evictions_per_user = adv.Adv.online_evictions)
        (Ccache_policies.Registry.online
        @ [ Ccache_core.Alg_discrete.policy; Ccache_core.Alg_fast.policy ]))

let test_theorem4_ratio_exceeds_one () =
  let point = T4.measure ~steps_per_user:100 ~n_users:8 ~beta:2.0 Ccache_policies.Lru.policy in
  checkb "online pricier than offline" true (point.T4.ratio > 1.0);
  checkb "offline positive" true (point.T4.offline_cost > 0.0);
  checki "k" 7 point.T4.k

let test_theorem4_ratio_beats_theory_curve () =
  (* the paper: ratio >= (k/4)^beta asymptotically; with a decent T the
     measured ratio should already clear the curve *)
  List.iter
    (fun beta ->
      let point =
        T4.measure ~steps_per_user:300 ~n_users:16 ~beta Ccache_policies.Lru.policy
      in
      checkb
        (Printf.sprintf "beta=%g clears (k/4)^beta" beta)
        true
        (point.T4.ratio >= point.T4.theory_curve))
    [ 1.0; 2.0 ]

let test_theorem4_slope_tracks_beta () =
  (* log-log slope of ratio vs k should be near beta (loose tolerance:
     finite-T effects) *)
  let _, slope1 =
    T4.sweep ~steps_per_user:200 ~ns:[ 4; 8; 16; 32 ] ~beta:1.0
      Ccache_policies.Lru.policy
  in
  let _, slope2 =
    T4.sweep ~steps_per_user:200 ~ns:[ 4; 8; 16; 32 ] ~beta:2.0
      Ccache_policies.Lru.policy
  in
  checkb "slope grows with beta" true (slope2 > slope1 +. 0.5);
  checkb "beta=1 slope ~1" true (slope1 > 0.5 && slope1 < 1.6);
  checkb "beta=2 slope ~2" true (slope2 > 1.4 && slope2 < 2.8)

let test_theorem4_cost_aware_not_exempt () =
  (* Theorem 1.4 binds every deterministic algorithm, including the
     paper's own *)
  let point =
    T4.measure ~steps_per_user:200 ~n_users:12 ~beta:2.0 Ccache_core.Alg_discrete.policy
  in
  checkb "alg-discrete also forced" true (point.T4.ratio >= point.T4.theory_curve)

let () =
  Alcotest.run "ccache_lb"
    [
      ( "adversary",
        [
          Alcotest.test_case "structure" `Quick test_adversary_structure;
          Alcotest.test_case "forces all policies" `Quick test_adversary_forces_all_policies;
          Alcotest.test_case "rejects offline" `Quick test_adversary_rejects_offline;
          Alcotest.test_case "validation" `Quick test_adversary_validation;
          QCheck_alcotest.to_alcotest ~long:false adversary_matches_engine;
        ] );
      ( "theorem4",
        [
          Alcotest.test_case "ratio > 1" `Quick test_theorem4_ratio_exceeds_one;
          Alcotest.test_case "beats theory curve" `Quick test_theorem4_ratio_beats_theory_curve;
          Alcotest.test_case "slope tracks beta" `Quick test_theorem4_slope_tracks_beta;
          Alcotest.test_case "cost-aware not exempt" `Quick test_theorem4_cost_aware_not_exempt;
        ] );
    ]
