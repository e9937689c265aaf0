(** Blended device drivers via compiler-injected polling (§V-C).

    The interrupt-driven logic of a driver is replaced by a
    constant-time poll check injected throughout the code with the
    same bounded-gap placement as compiler timing.  The device then
    behaves as if it were interrupt-driven — bounded service latency —
    but no interrupt ever fires. *)

type result = {
  program : string;
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