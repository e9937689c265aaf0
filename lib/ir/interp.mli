(** A counting interpreter for the IR.

    Executes a module's function with a real memory (an open-addressing
    int table, {!Iw_engine.Itbl}, so a load or store allocates
    nothing) and charges every instruction its {!Cost} model price.
    Runtime hooks observe the injected instructions — guards, tracking
    calls, timing callbacks, device polls — so runtime systems (CARAT,
    the timer framework, blended drivers) can be driven by actual
    compiled code. *)

exception Fault of string
(** Raised by hooks (e.g. a CARAT guard rejecting an access) or the
    interpreter (division by zero, unknown callee, a load or store at
    [min_int] or [min_int + 1], which the memory cannot hold). *)

exception Out_of_fuel

type ctx = {
  read : int -> int;  (** Raw physical read (no translation). *)
  write : int -> int -> unit;  (** Raw physical write. *)
}
(** Direct access to the run's memory, handed to hooks at start-up so
    runtimes can move data (CARAT region migration). *)

type hooks = {
  on_init : ctx -> unit;
  on_guard : base:int -> offset:int -> length:int option -> unit;
      (** [length = None] for exact guards, [Some n] for region
          guards.  Raise {!Fault} to reject. *)
  on_track_alloc : base:int -> size:int -> unit;
  on_track_free : base:int -> unit;
  on_callback : string -> cycles:int -> unit;
  on_poll : device:int -> cycles:int -> unit;
  translate : int -> int;
      (** Address translation applied to every load/store (CARAT data
          movement redirects accesses here).  Default: identity. *)
  extern : string -> int list -> int option;
      (** Callee resolution for functions absent from the module. *)
}

val default_hooks : hooks

type result = {
  ret : int option;
  cycles : int;
  dyn_insts : int;
  loads : int;
  stores : int;
  allocs : int;
  guards : int;
  tracks : int;
  callbacks : int;
  polls : int;
  max_callback_gap : int;
      (** Longest stretch of cycles between consecutive callbacks
          (including start-to-first and last-to-end); equals [cycles]
          when no callback executed. *)
}

val run :
  ?hooks:hooks -> ?fuel:int -> Ir.modul -> string -> int list -> result
(** Run [name(args)].  [fuel] bounds dynamic instructions (default
    50 million).  Memory is shared across the call tree and starts
    zeroed; allocation is a bump allocator from address 0x1000 unless
    [hooks.extern] overrides the ["malloc"]/["free"] names. *)
