open Iw_ir
(** Blended device drivers via compiler-injected polling (§V-C).

    The interrupt-driven logic of a driver is replaced by a
    constant-time poll check injected throughout the code with the
    same bounded-gap placement as compiler timing.  The device then
    behaves as if it were interrupt-driven — bounded service latency —
    but no interrupt ever fires. *)

val instrument : poll_budget:int -> device:int -> Ir.modul -> int

(** A simple device whose requests complete at given times and must
    then be serviced (by poll or by interrupt). *)
module Device : sig
  type t

  val create : completions:int list -> t
  (** Completion times, in cycles, ascending. *)

  val serviced : t -> int
  val polls : t -> int
end

type result = {
  program : string;
  poll_budget : int;
  polls_executed : int;
  completions : int;
  serviced : int;
  mean_latency : float;  (** Poll-serviced latency, cycles. *)
  max_latency : int;
  interrupt_latency : int;
      (** What interrupt-driven servicing would cost per event
          (dispatch + return), for comparison. *)
  overhead_pct : float;  (** Injected-poll cost vs the clean run. *)
}

val measure :
  poll_budget:int ->
  completions:int list ->
  plat:Iw_hw.Platform.t ->
  Iw_ir.Programs.program ->
  result
(** E11: run the program with a blended driver servicing [completions]
    and report latency and overhead against the interrupt path. *)