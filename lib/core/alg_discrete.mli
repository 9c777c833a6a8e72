(** ALG-DISCRETE (paper Figure 3) as an engine policy — the paper's
    primary contribution, in its reference O(k)-per-eviction form.
    For the O(log k) implementation see {!Alg_fast}; the two are
    property-tested identical under integer-valued costs.

    The ablations switch off individual Figure-3 update rules for
    experiment E9 (see {!Budget_state}):

    - no {e bump}: drops the same-owner marginal increase, severing
      the coupling between a user's pages;
    - no {e subtract}: drops the uniform budget decay, reducing the
      policy to greedy minimum-marginal-cost eviction (no recency
      signal at all). *)

val candidate_bounds : float array
(** Histogram buckets for eviction candidate-set sizes (shared with
    {!Alg_fast} so the two policies' telemetry is comparable). *)

val policy : Ccache_sim.Policy.t
(** The paper's algorithm ("alg-discrete"), discrete marginals. *)

val analytic : Ccache_sim.Policy.t
(** Same with analytic derivatives f'. *)

val no_bump : Ccache_sim.Policy.t
(** Ablation: no same-owner marginal bump. *)

val no_subtract : Ccache_sim.Policy.t
(** Ablation: greedy marginal-cost eviction. *)
