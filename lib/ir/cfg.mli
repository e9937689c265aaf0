(** Control-flow analyses: successors/predecessors, dominators,
    natural loops, and register def-sites — the facts the CARAT and
    timing passes hoist and place code with. *)

type t

val of_func : Ir.func -> t
(** Build the analysis for the current state of the function.  The
    result is a snapshot: rerun after transforming. *)

val successors : t -> Ir.label -> Ir.label list
val predecessors : t -> Ir.label -> Ir.label list

val reachable : t -> Ir.label list
(** Blocks reachable from the entry, in reverse postorder. *)

val dominates : t -> Ir.label -> Ir.label -> bool
(** [dominates t a b]: every path from entry to [b] passes through
    [a].  Reflexive. *)

val immediate_dominator : t -> Ir.label -> Ir.label option

(** A natural loop discovered from a back edge. *)
type loop = {
  header : Ir.label;
  body : Ir.label list;  (** Includes the header. *)
  latches : Ir.label list;  (** Sources of back edges to this header. *)
  depth : int;  (** Nesting depth; outermost = 1. *)
}

val loops : t -> loop list
(** Natural loops, one per header (back edges to the same header are
    merged), outermost first. *)

val defs_in : Ir.func -> Ir.label list -> (Ir.reg, unit) Hashtbl.t
(** Registers assigned by any instruction in the given blocks. *)

val operand_invariant : (Ir.reg, unit) Hashtbl.t -> Ir.operand -> bool
(** Is the operand invariant w.r.t. a def-set (immediates always
    are)? *)
