(** Least Recently Used.

    The classical k-competitive policy (Sleator & Tarjan).  Cost-blind:
    ignores both users and cost functions.  O(1) per event via an
    intrusive recency list, most recent at the front. *)

module Policy = Ccache_sim.Policy

open Ccache_trace
module L = Ccache_util.Slot_lists

let policy =
  Policy.make ~name:"lru" (fun config ->
      let recency = L.create ~capacity:config.Policy.Config.k ~lists:1 in
      {
        Policy.on_hit =
          (fun ~pos:_ page -> L.move_to_front recency 0 (L.find recency (Page.pack page)));
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ -> Page.unpack (L.key recency (L.back recency 0)));
        on_insert = (fun ~pos:_ page -> ignore (L.push_front recency 0 (Page.pack page)));
        on_evict = (fun ~pos:_ page -> L.remove recency (L.find recency (Page.pack page)));
      })
