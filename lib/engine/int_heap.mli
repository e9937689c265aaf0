(** Binary min-heap with monomorphic [int] keys and a parallel payload
    array.  Key comparisons are direct [<] on ints — no closures, no
    polymorphic [compare], no per-element allocation. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** Pre-allocates both arrays at [capacity] (default 16).  [dummy]
    fills vacated payload slots so popped values are not retained. *)

val is_empty : 'a t -> bool

val push : 'a t -> int -> 'a -> unit

val min_key : 'a t -> int
(** @raise Invalid_argument when empty. *)

val top : 'a t -> 'a
(** Payload with the smallest key. @raise Invalid_argument when empty. *)

val pop : 'a t -> 'a
(** Removes and returns the payload with the smallest key.
    @raise Invalid_argument when empty. *)
