(** Deterministic marking algorithm.

    Pages are marked on access; victims are chosen among unmarked pages
    (FIFO order within the unmarked set, making the policy
    deterministic).  When every cached page is marked, a new phase
    begins: all marks are cleared.  k-competitive, and the phase
    structure makes it a useful structural contrast to LRU in the
    experiments. *)

module Policy = Ccache_sim.Policy

open Ccache_trace
module L = Ccache_util.Slot_lists

let unmarked = 0
let marked = 1

let policy =
  Policy.make ~name:"marking" (fun config ->
      (* list [unmarked] in FIFO order; list [marked] in mark order *)
      let lists = L.create ~capacity:config.Policy.Config.k ~lists:2 in
      let mark page =
        let key = Page.pack page in
        let s = L.find lists key in
        if s = L.nil then ignore (L.push_back lists marked key)
        else if L.list_of lists s = unmarked then L.move_to_back lists marked s
      in
      let sorted = Array.make config.Policy.Config.k max_int in
      let new_phase () =
        (* all marks drop; marked pages become unmarked in deterministic
           (sorted) order so phase boundaries do not depend on mark
           order.  Sorting in place in [sorted], padded with max_int,
           builds no list per phase. *)
        let n = L.length lists marked in
        let s = ref (L.front lists marked) in
        for i = 0 to n - 1 do
          sorted.(i) <- L.key lists !s;
          s := L.next lists !s
        done;
        Array.fill sorted n (Array.length sorted - n) max_int;
        Array.sort Int.compare sorted;
        for i = 0 to n - 1 do
          L.move_to_back lists unmarked (L.find lists sorted.(i))
        done
      in
      {
        Policy.on_hit = (fun ~pos:_ page -> mark page);
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ ->
            if L.length lists unmarked = 0 then new_phase ();
            Page.unpack (L.key lists (L.front lists unmarked)));
        on_insert = (fun ~pos:_ page -> mark page);
        on_evict = (fun ~pos:_ page -> L.remove lists (L.find lists (Page.pack page)));
      })
