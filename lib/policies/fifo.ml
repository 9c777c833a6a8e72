(** First In First Out: evict the page resident longest, ignoring hits. *)

module Policy = Ccache_sim.Policy

open Ccache_trace
module L = Ccache_util.Slot_lists

let policy =
  Policy.make ~name:"fifo" (fun config ->
      let queue = L.create ~capacity:config.Policy.Config.k ~lists:1 in
      {
        Policy.on_hit = Policy.no_hit;
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ -> Page.unpack (L.key queue (L.back queue 0)));
        on_insert = (fun ~pos:_ page -> ignore (L.push_front queue 0 (Page.pack page)));
        on_evict = (fun ~pos:_ page -> L.remove queue (L.find queue (Page.pack page)));
      })
