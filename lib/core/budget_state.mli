(** The budget state machine of ALG-DISCRETE (paper Figure 3).

    Shared by the {!Alg_discrete} and {!Alg_windowed} policies and the
    dual-instrumented {!Alg_cont} runner so all of them provably make
    identical decisions.

    State: a budget [B(p)] for every cached page and the per-user
    eviction counts [m(i,t)].  [B(p)] equals the residual of the
    gradient condition for [p]'s current interval in ALG-CONT:
    [f'_{i(p)}(m(i(p)) + 1) - sum of y_t over the interval so far]
    (the [z] term is zero for cached pages).

    The two ablation switches of experiment E9 live here too, so every
    variant runs the one update rule:

    - [~bump:false] drops the same-owner marginal increase;
    - [~subtract:false] drops the uniform budget decay. *)

open Ccache_trace

type t

val create :
  ?bump:bool ->
  ?subtract:bool ->
  costs:Ccache_cost.Cost_function.t array ->
  mode:Ccache_cost.Cost_function.derivative_mode ->
  n_users:int ->
  unit ->
  t
(** Both switches default to [true] = the paper's algorithm. *)

val evictions : t -> int -> int
(** m(user): evictions of the user's pages so far. *)

val budget : t -> Page.t -> float option
val cached_count : t -> int

val touch : t -> Page.t -> unit
(** Refresh [B(p) <- f'(m+1)] on a hit or insertion (a new interval
    starts in ALG-CONT terms). *)

val min_budget : t -> Page.t * float
(** Cached page with minimum budget; ties break by {!Page.compare}.
    @raise Invalid_argument on an empty cache. *)

val evict : t -> Page.t -> float
(** Full Figure-3 eviction update: removes the victim, bumps the
    owner's eviction count, subtracts the victim's budget [delta] from
    every remaining budget and adds [f'(m+2) - f'(m+1)] to the owner's
    remaining pages (each step unless switched off).  Returns [delta]
    (the ALG-CONT [y_t] increase).
    @raise Invalid_argument if the victim is not cached. *)

val restart : t -> unit
(** Window restart: every eviction count drops to zero and every cached
    page is {!touch}ed again, keeping the cache contents. *)
