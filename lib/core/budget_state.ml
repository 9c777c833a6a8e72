(** The budget state machine of ALG-DISCRETE (paper Figure 3).

    Shared by the {!Alg_discrete} and {!Alg_windowed} policies and the
    dual-instrumented {!Alg_cont} runner so all of them provably make
    identical decisions.

    State: a budget [B(p)] for every cached page and the per-user
    eviction counts [m(i,t)].  The three update rules:

    - on any access (hit or insert) of page [p]:
        [B(p) <- f'_{i(p)}(m(i(p)) + 1)]
    - eviction victim: the cached page with minimum budget (ties broken
      by {!Ccache_trace.Page.compare}, making the algorithm fully
      deterministic);
    - on evicting [p] with budget [delta]:
        every other cached page loses [delta], and every cached page of
        user [i(p)] additionally gains
        [f'(m+2) - f'(m+1)] (evaluated at the pre-eviction count [m]) —
        the owner's marginal cost just went up.

    The ablations of experiment E9 switch off the owner gain
    ([bump = false]) or the uniform loss ([subtract = false]).

    [B(p)] equals the residual of the gradient condition for [p]'s
    current interval in ALG-CONT, i.e.
    [f'(m(i(p))+1) - sum of y_t over the interval so far] (the [z] term
    is zero for cached pages), which is how the correctness proof reads
    the state. *)

open Ccache_trace
module Cf = Ccache_cost.Cost_function

type t = {
  costs : Cf.t array;  (** indexed by user; out-of-range users cost 0 *)
  mode : Cf.derivative_mode;
  bump : bool;
  subtract : bool;
  b : float Page.Tbl.t;  (** budgets of currently cached pages *)
  m : int array;  (** evictions per user so far, one slot per user + dummy *)
}

let zero_cost = Cf.linear ~slope:0.0 ()

let create ?(bump = true) ?(subtract = true) ~costs ~mode ~n_users () =
  if Array.length costs < n_users then
    invalid_arg "Budget_state.create: costs shorter than n_users";
  {
    costs;
    mode;
    bump;
    subtract;
    b = Page.Tbl.create 256;
    m = Array.make (n_users + 1) 0;
  }

let cost_of t user =
  if user < Array.length t.costs then t.costs.(user) else zero_cost

(* users past n_users (the flush dummy) share the last slot of [m] *)
let slot t user = Stdlib.min user (Array.length t.m - 1)
let evictions t user = t.m.(slot t user)

(* f'_i evaluated at (m_i + offset); [Discrete] mode uses the marginal
   f(x) - f(x-1) as Section 2.5 allows. *)
let rate t user ~offset =
  Cf.rate (cost_of t user) t.mode (evictions t user + offset)

let budget t page = Page.Tbl.find_opt t.b page
let cached_count t = Page.Tbl.length t.b

(** Refresh [B(p)] on a hit or insertion (a new interval starts). *)
let touch t page =
  Page.Tbl.replace t.b page (rate t (Page.user page) ~offset:1)

(** Cached page with minimum budget; deterministic tie-break by
    {!Page.compare}.  Raises [Invalid_argument] on an empty cache. *)
let min_budget t =
  let best = ref None in
  Page.Tbl.iter
    (fun page b ->
      match !best with
      | None -> best := Some (page, b)
      | Some (bp, bb) ->
          if b < bb || (b = bb && Page.compare page bp < 0) then
            best := Some (page, b))
    t.b;
  match !best with
  | Some pb -> pb
  | None -> invalid_arg "Budget_state.min_budget: empty cache"

(** Apply the Figure-3 eviction update for [victim]; returns the
    victim's budget [delta] (the amount [y_t] increases by in
    ALG-CONT).  The incoming page must not yet have been [touch]ed. *)
let evict t victim =
  let delta =
    match Page.Tbl.find_opt t.b victim with
    | Some b -> b
    | None -> invalid_arg "Budget_state.evict: victim not cached"
  in
  Page.Tbl.remove t.b victim;
  let owner = Page.user victim in
  (* marginal bump uses the pre-eviction count m *)
  let bump =
    if t.bump then rate t owner ~offset:2 -. rate t owner ~offset:1 else 0.0
  in
  let slot = slot t owner in
  t.m.(slot) <- t.m.(slot) + 1;
  (* single in-place sweep: subtract delta everywhere, add bump to
     owner pages.  [filter_map_inplace] rewrites each binding where it
     sits — no intermediate update list, no rehashing — though each
     binding still allocates its [Some] and boxed float. *)
  Page.Tbl.filter_map_inplace
    (fun page b ->
      let b = if t.subtract then b -. delta else b in
      Some (if Page.user page = owner then b +. bump else b))
    t.b;
  delta

let restart t =
  Array.fill t.m 0 (Array.length t.m) 0;
  Page.Tbl.filter_map_inplace
    (fun page _ -> Some (rate t (Page.user page) ~offset:1))
    t.b
