(** Multiple memory pools — the paper's future-work extension (§5):
    each tenant is assigned to one pool (its own cache + policy
    instance); an optional rebalancer migrates tenants between pools,
    paying a switching cost and losing the migrated tenant's warm
    pages.

    The greedy rebalancer fires every [rebalance_every] requests and
    moves the highest-pressure tenant from the most- to the
    least-pressured pool, guarded by: a cooldown, a 3x pool-pressure
    hysteresis, a stability condition (the move must not just flip the
    imbalance), and an economics test (amortised expected gain must
    exceed switching plus estimated re-warm cost).

    A migration drops the tenant's pages from its old pool one
    [on_evict] at a time, in [Page.Tbl] bucket order.  For a policy
    whose eviction update depends on earlier evictions (ALG-DISCRETE
    subtracts each victim's budget from every page left), the budgets
    of the surviving pages, and so later victims, depend on that
    order.  This is why the pools keep their own replay loop instead
    of stepping {!Ccache_sim.Engine.Step}, whose cache set would
    iterate in a different order. *)

type strategy =
  | Static_round_robin
  | Greedy_cost of { rebalance_every : int; switch_cost : float }

val strategy_name : strategy -> string

type result = {
  strategy : string;
  pools : int;
  pool_size : int;
  misses_per_user : int array;
  migrations : int;
  switch_cost_paid : float;
  total_cost : float;  (** sum_i f_i(misses_i) + switch costs paid *)
}

val run :
  ?policy:Ccache_sim.Policy.t ->
  ?initial_assignment:int array ->
  pools:int ->
  pool_size:int ->
  strategy:strategy ->
  costs:Ccache_cost.Cost_function.t array ->
  Ccache_trace.Trace.t ->
  result
(** [policy] defaults to ALG-DISCRETE; [initial_assignment] defaults
    to round-robin.  @raise Invalid_argument on malformed pools,
    sizes, costs or assignments. *)
