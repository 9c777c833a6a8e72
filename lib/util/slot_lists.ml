(** Fixed-capacity intrusive doubly-linked lists over int keys (see
    the .mli for the contract).

    Structure of arrays: slot [s] holds [keys.(s)], its neighbours
    [prev.(s)]/[next.(s)], its list [owner.(s)] ([nil] when free) and
    [tags.(s)].  Free slots are chained through [next].  The key index
    is sized so it never grows, which is what makes every operation
    after {!create} allocation-free. *)

type t = {
  index : Int_tbl.t; (* key -> slot *)
  keys : int array;
  prev : int array;
  next : int array; (* list successor, or free-list successor *)
  owner : int array;
  tags : int array;
  heads : int array;
  tails : int array;
  lens : int array;
  mutable free : int;
}

let nil = -1

(* [@effects.cold]: raising helpers, so callers keep [no_alloc]. *)
let[@effects.cold] fail fmt = Printf.ksprintf invalid_arg fmt

let create ~capacity ~lists =
  if capacity < 1 || lists < 1 then
    fail "Slot_lists.create: capacity %d, lists %d" capacity lists;
  {
    (* Int_tbl grows past half load: 2c+1 keeps c keys below it *)
    index = Int_tbl.create ~capacity:((2 * capacity) + 1) ();
    keys = Array.make capacity 0;
    prev = Array.make capacity nil;
    next = Array.init capacity (fun s -> if s + 1 < capacity then s + 1 else nil);
    owner = Array.make capacity nil;
    tags = Array.make capacity 0;
    heads = Array.make lists nil;
    tails = Array.make lists nil;
    lens = Array.make lists 0;
    free = 0;
  }

let size t = Int_tbl.length t.index
let length t l = t.lens.(l)

let find t key = Int_tbl.find_default t.index key ~default:nil
  [@@effects.no_alloc] [@@effects.deterministic]

let list_of t s = if s = nil then nil else t.owner.(s)
  [@@effects.no_alloc] [@@effects.deterministic]

let live t name s =
  if s < 0 || s >= Array.length t.owner || t.owner.(s) = nil then
    fail "Slot_lists.%s: slot %d is not live" name s
  [@@inline]

let key t s =
  live t "key" s;
  t.keys.(s)
  [@@effects.no_alloc] [@@effects.deterministic]

let tag t s =
  live t "tag" s;
  t.tags.(s)
  [@@effects.no_alloc] [@@effects.deterministic]

let set_tag t s v =
  live t "set_tag" s;
  t.tags.(s) <- v
  [@@effects.no_alloc] [@@effects.deterministic]

let front t l = t.heads.(l)
let back t l = t.tails.(l)

let next t s =
  live t "next" s;
  t.next.(s)

(* Detach a live slot from its list, leaving [owner] to the caller. *)
let unlink t s =
  let l = t.owner.(s) and p = t.prev.(s) and n = t.next.(s) in
  if p = nil then t.heads.(l) <- n else t.next.(p) <- n;
  if n = nil then t.tails.(l) <- p else t.prev.(n) <- p;
  t.lens.(l) <- t.lens.(l) - 1

let link_front t l s =
  let h = t.heads.(l) in
  t.owner.(s) <- l;
  t.prev.(s) <- nil;
  t.next.(s) <- h;
  if h = nil then t.tails.(l) <- s else t.prev.(h) <- s;
  t.heads.(l) <- s;
  t.lens.(l) <- t.lens.(l) + 1

let link_back t l s =
  let b = t.tails.(l) in
  t.owner.(s) <- l;
  t.next.(s) <- nil;
  t.prev.(s) <- b;
  if b = nil then t.heads.(l) <- s else t.next.(b) <- s;
  t.tails.(l) <- s;
  t.lens.(l) <- t.lens.(l) + 1

(* Take a free slot for a new key. *)
let claim t name key =
  let s = t.free in
  if s = nil then fail "Slot_lists.%s: all %d slots taken" name (Array.length t.keys);
  if Int_tbl.mem t.index key then fail "Slot_lists.%s: key %d already present" name key;
  t.free <- t.next.(s);
  t.keys.(s) <- key;
  t.tags.(s) <- 0;
  Int_tbl.set t.index key s;
  s

let push_front t l key =
  let s = claim t "push_front" key in
  link_front t l s;
  s
  [@@effects.no_alloc] [@@effects.deterministic]

let push_back t l key =
  let s = claim t "push_back" key in
  link_back t l s;
  s
  [@@effects.no_alloc] [@@effects.deterministic]

let remove t s =
  live t "remove" s;
  unlink t s;
  ignore (Int_tbl.remove t.index t.keys.(s));
  t.owner.(s) <- nil;
  t.next.(s) <- t.free;
  t.free <- s
  [@@effects.no_alloc] [@@effects.deterministic]

let move_to_front t l s =
  live t "move_to_front" s;
  if t.heads.(l) <> s then begin
    unlink t s;
    link_front t l s
  end
  [@@effects.no_alloc] [@@effects.deterministic]

let move_to_back t l s =
  live t "move_to_back" s;
  if t.tails.(l) <> s then begin
    unlink t s;
    link_back t l s
  end
  [@@effects.no_alloc] [@@effects.deterministic]

let to_list t l =
  let rec go s acc = if s = nil then acc else go t.prev.(s) (t.keys.(s) :: acc) in
  go t.tails.(l) []

(* Walk every list and the free chain: each slot is reached exactly
   once, with consistent back links, owner and index entry. *)
let invariant_ok t =
  let cap = Array.length t.keys in
  let ok = ref (Int_tbl.invariant_ok t.index) and reached = ref 0 in
  let walk ~owner first =
    let count = ref 0 and prev = ref nil and s = ref first in
    while !ok && !s <> nil do
      if
        !reached >= cap
        || t.owner.(!s) <> owner
        || (owner <> nil
           && (t.prev.(!s) <> !prev || find t t.keys.(!s) <> !s))
      then ok := false;
      incr count;
      incr reached;
      prev := !s;
      s := t.next.(!s)
    done;
    (!count, !prev)
  in
  Array.iteri
    (fun l h ->
      let count, last = walk ~owner:l h in
      if count <> t.lens.(l) || last <> t.tails.(l) then ok := false)
    t.heads;
  let live_keys = !reached in
  ignore (walk ~owner:nil t.free);
  !ok && !reached = cap && live_keys = size t
