(** Least Frequently Used (in-cache frequency, reset on eviction).

    Victim: the cached page with the fewest hits since insertion, ties
    broken deterministically by interner id (i.e. first-touch order). *)

module Policy = Ccache_sim.Policy
module Heap = Ccache_util.Indexed_heap

let policy =
  Policy.make ~name:"lfu" (fun _config ->
      let interner = Interner.create () in
      let heap = Heap.create () in
      {
        Policy.on_hit =
          (fun ~pos:_ page ->
            (* the heap priority is the in-cache request count *)
            let key = Interner.intern interner page in
            Heap.update heap ~key ~prio:(Heap.priority heap key +. 1.0));
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ ->
            let key, _ = Heap.peek_exn heap in
            Interner.page interner key);
        on_insert =
          (fun ~pos:_ page ->
            let key = Interner.intern interner page in
            Heap.add heap ~key ~prio:1.0);
        on_evict =
          (fun ~pos:_ page ->
            Heap.remove heap (Interner.intern interner page));
      })
