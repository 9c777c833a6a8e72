(** ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST'03).

    Four lists: resident [T1] (recency: seen once recently) and [T2]
    (frequency: seen at least twice), plus ghost histories [B1]/[B2]
    of pages recently evicted from T1/T2.  A tunable target [p] splits
    the cache between T1 and T2; ghost hits move it — a B1 hit says
    "recency is winning, grow p", a B2 hit the opposite — which is the
    self-tuning that made ARC famous.

    Adaptation to the engine contract: placement decisions happen in
    [on_insert] (ghost membership decides T1 vs T2 and adapts p);
    victims follow the REPLACE procedure (evict T1's LRU when
    |T1| > p, else T2's LRU).  Ghost lists are capped so that
    |T1|+|B1| <= k and the four lists total <= 2k, as in the paper. *)

module Policy = Ccache_sim.Policy
open Ccache_trace
module L = Ccache_util.Slot_lists

(* list ids *)
let t1 = 0
let t2 = 1
let b1 = 2
let b2 = 3

let policy =
  Policy.make ~name:"arc" (fun config ->
      let k = config.Policy.Config.k in
      (* the paper's directory bound: the four lists total <= 2k *)
      let lists = L.create ~capacity:(2 * k) ~lists:4 in
      let len = L.length lists in
      (* target size of T1, in [0, k]; a one-cell floatarray, where a
         [float ref] would box a fresh float on every ghost hit *)
      let p = Float.Array.make 1 0.0 in
      (* drop a ghost from the LRU end of B1 or B2 *)
      let trim_ghost l = if len l > 0 then L.remove lists (L.back lists l) in
      {
        Policy.on_hit =
          (fun ~pos:_ page ->
            (* resident hit: promote to T2 MRU *)
            L.move_to_front lists t2 (L.find lists (Page.pack page)));
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming ->
            (* REPLACE: prefer T1 when it exceeds the target p (with the
               paper's tie nudge toward T1 if the incoming page is a B2
               ghost), else T2 *)
            let incoming_in_b2 = L.list_of lists (L.find lists (Page.pack incoming)) = b2 in
            let t1_len = float_of_int (len t1) in
            let from_t1 =
              len t1 > 0
              && (t1_len > Float.Array.get p 0
                 || (incoming_in_b2 && t1_len = Float.Array.get p 0)
                 || len t2 = 0)
            in
            Page.unpack (L.key lists (L.back lists (if from_t1 then t1 else t2))));
        on_insert =
          (fun ~pos:_ page ->
            let key = Page.pack page in
            let s = L.find lists key in
            let l = L.list_of lists s in
            if l = b1 then begin
              (* recency ghost hit: grow p by max(1, |B2|/|B1|) *)
              let d =
                Float.max 1.0
                  (float_of_int (len b2) /. float_of_int (Stdlib.max 1 (len b1)))
              in
              Float.Array.set p 0 (Float.min (float_of_int k) (Float.Array.get p 0 +. d));
              L.move_to_front lists t2 s
            end
            else if l = b2 then begin
              (* frequency ghost hit: shrink p *)
              let d =
                Float.max 1.0
                  (float_of_int (len b1) /. float_of_int (Stdlib.max 1 (len b2)))
              in
              Float.Array.set p 0 (Float.max 0.0 (Float.Array.get p 0 -. d));
              L.move_to_front lists t2 s
            end
            else if l <> L.nil then
              invalid_arg ("arc: inserting resident page " ^ Page.to_string page)
            else begin
              (* brand new page goes to T1; keep |T1|+|B1| <= k and
                 the directory total <= 2k, as in the paper's Case IV *)
              if len t1 + len b1 >= k then trim_ghost b1
              else if L.size lists >= 2 * k then trim_ghost b2;
              ignore (L.push_front lists t1 key)
            end);
        on_evict =
          (fun ~pos:_ page ->
            (* resident page leaves the cache: its identity becomes a
               ghost in the matching history list *)
            let s = L.find lists (Page.pack page) in
            let l = L.list_of lists s in
            if l = t1 then L.move_to_front lists b1 s
            else if l = t2 then L.move_to_front lists b2 s
            else invalid_arg ("arc: evicting non-resident " ^ Page.to_string page));
      })
