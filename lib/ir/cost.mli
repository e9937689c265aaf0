(** The cycle cost model shared by the static analyses and the
    interpreter.  Call costs cover only the call overhead; callee
    bodies are accounted dynamically. *)

val inst : Ir.inst -> int
val term : Ir.terminator -> int
val block : Ir.block -> int
(** Instructions + terminator. *)

val track : int

val callback : int
(** Cost of an injected timing *check* (counter + compare); the
    framework call it guards fires only when the period elapses and
    is costed by the runtime that owns the hook. *)

val poll : int
