(** 2Q (Johnson & Shasha, VLDB'94), full version.

    Three structures: [A1in], a FIFO of recently admitted pages;
    [A1out], a ghost FIFO of page identities recently expelled from
    A1in (it holds no cache space); [Am], an LRU of established hot
    pages.  A miss whose page is remembered in A1out goes straight to
    Am (a second touch within the window proves reuse); other misses
    enter A1in.  Victims come from A1in while it exceeds its quota
    (defaults: Kin = k/4, Kout = k/2), else from Am's LRU end.

    Filters out one-touch scan traffic that floods plain LRU. *)

module Policy = Ccache_sim.Policy
open Ccache_trace
module L = Ccache_util.Slot_lists

(* list ids; A1out holds ghost identities and no cache space *)
let a1in = 0
let am = 1
let a1out = 2

let make ?(kin_fraction = 0.25) ?(kout_fraction = 0.5) () =
  if kin_fraction <= 0.0 || kin_fraction >= 1.0 then
    invalid_arg "Two_q.make: kin_fraction in (0,1)";
  if kout_fraction <= 0.0 then invalid_arg "Two_q.make: kout_fraction > 0";
  Policy.make ~name:"2q" (fun config ->
      let k = config.Policy.Config.k in
      let kin = Stdlib.max 1 (int_of_float (kin_fraction *. float_of_int k)) in
      let kout = Stdlib.max 1 (int_of_float (kout_fraction *. float_of_int k)) in
      let lists = L.create ~capacity:(k + kout) ~lists:3 in
      let len = L.length lists in
      {
        Policy.on_hit =
          (fun ~pos:_ page ->
            (* original 2Q: a hit in A1in does nothing (the queue is
               young by construction) *)
            let s = L.find lists (Page.pack page) in
            let l = L.list_of lists s in
            if l = am then L.move_to_front lists am s
            else if l <> a1in then
              invalid_arg ("2q: hit on untracked " ^ Page.to_string page));
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ ->
            let from_a1in = len a1in >= kin && len a1in > 0 in
            let queue = if from_a1in || len am = 0 then a1in else am in
            Page.unpack (L.key lists (L.back lists queue)));
        on_insert =
          (fun ~pos:_ page ->
            let key = Page.pack page in
            let s = L.find lists key in
            (* a remembered ghost is promoted straight to Am *)
            if L.list_of lists s = a1out then L.move_to_front lists am s
            else ignore (L.push_front lists a1in key));
        on_evict =
          (fun ~pos:_ page ->
            let s = L.find lists (Page.pack page) in
            let l = L.list_of lists s in
            if l = a1in then begin
              (* expelled from A1in: remember the identity *)
              L.move_to_front lists a1out s;
              if len a1out > kout then L.remove lists (L.back lists a1out)
            end
            else if l = am then L.remove lists s
            else invalid_arg ("2q: evicting untracked " ^ Page.to_string page));
      })

let policy = make ()
