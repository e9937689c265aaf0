(** A miniature MPL-flavored fork-join language whose runtime derives
    coherence hints by construction (§V-B + §V-G).

    The paper's coherence-deactivation protocol is driven by "the
    semantics available in this language and in how the implementation
    manages memory" — MPL's disentanglement discipline (Westrick et
    al., POPL'20).  This module makes that pipeline concrete: programs
    are written against a fork-join API with a tagged heap; the
    runtime tracks which task allocated each object and whether it has
    been frozen (made immutable); every access is classified on the
    fly —

    - objects allocated by the accessing task (or below it and joined
      back) are {e private} to its core;
    - frozen objects are {e read-only};
    - everything else, and anything involved in an entanglement
      (an access to a live concurrent task's allocation), is
      {e shared}.

    The derived hints feed a {!Machine} directly, so the same program
    can run against tracked MESI and against selective deactivation
    with hints nobody wrote by hand. *)

type ctx
(** A running task's context: carries the task identity and the core
    it executes on. *)

type 'a obj
(** A heap object of ['a] cells (contents are real; reads/writes both
    touch the simulated memory system and the value). *)

type stats = {
  accesses : int;
  classified_private : int;
  classified_ro : int;
  classified_shared : int;
  entanglements : int;
      (** Accesses to a live concurrent task's allocation (a
          disentanglement violation), downgraded to shared. *)
}

val run : machine:Machine.t -> (ctx -> 'a) -> 'a * stats
(** Execute a fork-join program against [machine].  Tasks are placed
    round-robin on the machine's cores. *)

val par2 : ctx -> (ctx -> 'a) -> (ctx -> 'b) -> 'a * 'b
(** Fork two child tasks and join them. *)

val par_for : ctx -> lo:int -> hi:int -> grain:int -> (ctx -> int -> unit) -> unit
(** Recursive binary-splitting parallel for with sequential grain. *)

val alloc : ctx -> int -> init:'a -> 'a obj
val read : ctx -> 'a obj -> int -> 'a
val write : ctx -> 'a obj -> int -> 'a -> unit

val freeze : ctx -> 'a obj -> unit
(** Make the object immutable: subsequent reads classify read-only;
    writes raise [Invalid_argument]. *)
