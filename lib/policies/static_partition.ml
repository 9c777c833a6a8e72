(** Static memory partitioning: each tenant owns a fixed slice of the
    cache, managed by LRU internally.

    This is the strawman of the paper's introduction ("static memory
    allocations are inherently wasteful"): capacity reserved for an
    idle tenant cannot be used by a busy one.  A tenant whose slice is
    full evicts its own LRU page even when other slices have free
    space, which is why this policy needs the engine's early-eviction
    hook.

    Slice sizes: proportional to [weights] (default: equal), floored,
    with leftover slots handed out round-robin from user 0.  Every
    tenant gets at least one slot when k >= n_users. *)

module Policy = Ccache_sim.Policy

open Ccache_trace
module L = Ccache_util.Slot_lists

let slice_sizes ~k ~n_users ~weights =
  let weights =
    match weights with
    | Some w ->
        if Array.length w <> n_users then
          invalid_arg "Static_partition: weights/users mismatch";
        Array.iter
          (fun x -> if x <= 0.0 then invalid_arg "Static_partition: nonpositive weight")
          w;
        w
    | None -> Array.make n_users 1.0
  in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let sizes =
    Array.map (fun w -> int_of_float (float_of_int k *. w /. total)) weights
  in
  (* guarantee a slot per tenant where possible *)
  if k >= n_users then
    Array.iteri (fun i s -> if s = 0 then sizes.(i) <- 1) sizes;
  let used = Array.fold_left ( + ) 0 sizes in
  let leftover = ref (k - used) in
  (* steal back if the minimum-guarantee overshot *)
  let i = ref 0 in
  while !leftover < 0 do
    if sizes.(!i mod n_users) > 1 then begin
      sizes.(!i mod n_users) <- sizes.(!i mod n_users) - 1;
      incr leftover
    end;
    incr i
  done;
  let j = ref 0 in
  while !leftover > 0 do
    sizes.(!j mod n_users) <- sizes.(!j mod n_users) + 1;
    decr leftover;
    incr j
  done;
  sizes

let make ?weights () =
  Policy.make ~name:"static-partition" (fun config ->
      let n_users = config.Policy.Config.n_users in
      let k = config.Policy.Config.k in
      let sizes = slice_sizes ~k ~n_users ~weights in
      (* one LRU list per user, most recent at the front; the flush
         dummy user (id = n_users) shares a zero-quota slice handled by
         falling back to global LRU order *)
      let slices = L.create ~capacity:k ~lists:(n_users + 1) in
      let occupancy = L.length slices in
      let slice_of page = Stdlib.min (Page.user page) n_users in
      (* the flush dummy user gets quota k so its requests displace real
         pages (via the over-quota branch) instead of each other *)
      let quota u = if u >= n_users then k else sizes.(u) in
      let lru_page u = Page.unpack (L.key slices (L.back slices u)) in
      (* victim for an incoming page of user u: u's own LRU page if u's
         slice is at quota; otherwise (u under quota but cache full,
         possible for the zero-quota dummy) the LRU page of the most
         over-quota tenant *)
      let victim_for u =
        if occupancy u >= quota u && occupancy u > 0 then lru_page u
        else begin
          let worst = ref L.nil and worst_excess = ref min_int in
          for v = 0 to n_users do
            let excess = occupancy v - quota v in
            if occupancy v > 0 && excess > !worst_excess then begin
              worst := v;
              worst_excess := excess
            end
          done;
          if !worst = L.nil then invalid_arg "static-partition: empty cache";
          lru_page !worst
        end
      in
      {
        Policy.on_hit =
          (fun ~pos:_ page ->
            L.move_to_front slices (slice_of page) (L.find slices (Page.pack page)));
        wants_evict =
          (fun ~pos:_ ~incoming ->
            let u = slice_of incoming in
            occupancy u >= quota u && occupancy u > 0);
        choose_victim = (fun ~pos:_ ~incoming -> victim_for (slice_of incoming));
        on_insert =
          (fun ~pos:_ page ->
            ignore (L.push_front slices (slice_of page) (Page.pack page)));
        on_evict = (fun ~pos:_ page -> L.remove slices (L.find slices (Page.pack page)));
      })

let equal_split = make ()
