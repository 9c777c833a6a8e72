(** Fixed-capacity family of intrusive doubly-linked lists over int
    keys.

    The recency structures of the LRU/FIFO/CLOCK/2Q/ARC/Marking/static
    partition policies.  Every key lives in at most one list, in a
    numbered slot; an {!Int_tbl} maps the key to its slot, and the
    slot's key, links, owning list and a free-form int tag sit in flat
    [int array]s.  Freed slots go on a free list.  Capacity is fixed at
    {!create}: nothing grows and nothing is allocated per operation.

    Slots are the handles: a policy calls {!find} once per request and
    then splices the slot in O(1).  Lists are numbered [0 .. lists-1].
    The empty-list and absent-key result is {!nil}.  Every slot
    argument must be live: passing {!nil} or a freed slot raises
    [Invalid_argument], so a policy bug cannot corrupt the links. *)

type t

val nil : int
(** [-1]: no slot. *)

val create : capacity:int -> lists:int -> t
(** @raise Invalid_argument if [capacity < 1] or [lists < 1]. *)

val size : t -> int
(** Keys held across all lists. *)

val length : t -> int -> int
(** Keys held in one list. *)

val find : t -> int -> int
(** Slot holding the key, or {!nil}. *)

val list_of : t -> int -> int
(** List holding a slot; {!nil} for {!nil} or a freed slot. *)

val key : t -> int -> int
val tag : t -> int -> int
val set_tag : t -> int -> int -> unit

val front : t -> int -> int
(** Slot at the front of a list, or {!nil} when it is empty. *)

val back : t -> int -> int

val next : t -> int -> int
(** Slot after a live slot in its list, or {!nil} at the back. *)

val push_front : t -> int -> int -> int
(** [push_front t l key] puts a new key at the front of list [l] with
    tag 0 and returns its slot.
    @raise Invalid_argument if the key is present or every slot is
    taken. *)

val push_back : t -> int -> int -> int

val remove : t -> int -> unit
(** Unlink the slot and free it; its key leaves the table. *)

val move_to_front : t -> int -> int -> unit
(** [move_to_front t l s] splices slot [s], in whatever list, to the
    front of list [l]; the key and tag stay. *)

val move_to_back : t -> int -> int -> unit

val to_list : t -> int -> int list
(** Keys of a list, front to back. *)

val invariant_ok : t -> bool
(** Links, owners, lengths, free list and key index agree; used by
    tests. *)
