(** CLOCK (second-chance FIFO).

    Pages sit on a circular list with a reference bit; the hand sweeps
    from the oldest entry, clearing set bits and evicting the first
    page whose bit is already clear.  Approximates LRU at O(1) hit
    cost — the classical VM page-replacement algorithm. *)

module Policy = Ccache_sim.Policy
open Ccache_trace
module L = Ccache_util.Slot_lists

let policy =
  Policy.make ~name:"clock" (fun config ->
      (* the list front is the hand position: entries cycle from front
         (oldest / next to examine) to back (most recently passed); a
         slot's tag is its reference bit *)
      let ring = L.create ~capacity:config.Policy.Config.k ~lists:1 in
      (* sweep: clear bits and rotate until an unreferenced entry
         surfaces.  Terminates within two laps. *)
      let rec sweep () =
        let s = L.front ring 0 in
        if L.tag ring s = 0 then Page.unpack (L.key ring s)
        else begin
          L.set_tag ring s 0;
          L.move_to_back ring 0 s;
          sweep ()
        end
      in
      {
        Policy.on_hit = (fun ~pos:_ page -> L.set_tag ring (L.find ring (Page.pack page)) 1);
        wants_evict = Policy.never_evict_early;
        choose_victim = (fun ~pos:_ ~incoming:_ -> sweep ());
        on_insert = (fun ~pos:_ page -> ignore (L.push_back ring 0 (Page.pack page)));
        on_evict = (fun ~pos:_ page -> L.remove ring (L.find ring (Page.pack page)));
      })
