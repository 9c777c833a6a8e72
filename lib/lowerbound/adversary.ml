(** The adaptive adversary of Theorem 1.4.

    Instance: n users, one page each, cache size k = n - 1.  After a
    warm-up that fills the cache with pages 0..n-2, every step requests
    exactly the page missing from the online algorithm's cache, forcing
    an eviction per step.  The request sequence depends on the
    algorithm, so it is built while the run goes: each request is fed
    to an {!Ccache_sim.Engine.Step} state (over an empty trace), and
    the engine's decision events tell the adversary which page is
    missing next.  Cache set, miss and eviction counts and the victim
    checks are the engine's.

    Returns both the induced trace — a perfectly ordinary trace that
    offline comparators can then be run on — and the online
    algorithm's per-user miss counts. *)

module Engine = Ccache_sim.Engine
module Policy = Ccache_sim.Policy
open Ccache_trace

type outcome = {
  trace : Trace.t;
  online_misses : int array;  (** per user *)
  online_evictions : int array;
  k : int;
}

(** Drive [policy] for [steps] adversarial requests (after the n-1
    warm-up requests, which are also part of the returned trace).

    @param costs per-user cost functions, made visible to cost-aware
      policies exactly as the engine would. *)
let drive ~n_users ~steps ~costs policy =
  if n_users < 2 then invalid_arg "Adversary.drive: need at least 2 users";
  if Array.length costs <> n_users then
    invalid_arg "Adversary.drive: costs/users mismatch";
  if Policy.needs_future policy then
    invalid_arg "Adversary.drive: offline policies cannot be driven adaptively";
  let k = n_users - 1 in
  (* user u's one page is cached iff cached.(u) *)
  let cached = Array.make n_users false in
  let on_event = function
    | Engine.Hit _ -> ()
    | Engine.Miss_insert { page; _ } -> cached.(Page.user page) <- true
    | Engine.Miss_evict { page; victim; _ } ->
        cached.(Page.user victim) <- false;
        cached.(Page.user page) <- true
  in
  let engine =
    Engine.Step.init ~on_event ~k ~costs policy (Trace.of_list ~n_users [])
  in
  let requests = ref [] in
  let request u =
    let page = Page.make ~user:u ~id:0 in
    requests := page :: !requests;
    Engine.Step.feed engine page
  in
  (* warm-up: fill the cache with users 0..k-1 *)
  for u = 0 to k - 1 do
    request u
  done;
  (* adversarial phase: the engine keeps at most k = n-1 pages, so one
     user's page is always missing; request the lowest such user *)
  for _ = 1 to steps do
    let missing = ref 0 in
    while cached.(!missing) do
      incr missing
    done;
    request !missing
  done;
  let r = Engine.Step.finish engine in
  {
    trace = Trace.of_list ~n_users (List.rev !requests);
    online_misses = r.Engine.misses_per_user;
    online_evictions = r.Engine.evictions_per_user;
    k;
  }
