open Iw_ir
(** Compiler-based timing (§IV-C).

    Replaces the hardware timer with code: timing checks are injected
    so that on every dynamic path at most [check_budget] cycles pass
    between checks.  A check reads the cycle counter and compares it
    to the next deadline (cost {!Cost.callback}); when due, it calls
    into the timer framework, which can drive fiber context switches
    ({!Iw_kernel.Fiber}), software timers, or device polls — with
    call-instruction overhead instead of ~1000-cycle interrupt
    dispatch. *)

val instrument : check_budget:int -> Ir.modul -> int
(** Inject timing checks; returns the number of sites. *)

type accuracy = {
  program : string;
  budget : int;
  max_gap : int;  (** Longest observed cycles between checks. *)
  checks : int;
  cycles : int;
  overhead_pct : float;
      (** Cost of the injected checks relative to the uninstrumented
          run. *)
}

val measure : check_budget:int -> Programs.program -> accuracy
(** Instrument a fresh copy of the program, run both versions, and
    report gap fidelity and overhead (E12).  Also asserts the
    transformation preserved the program's result. *)

(** Runtime half: a timer framework driven by the injected checks. *)
module Framework : sig
  type t

  val create : period:int -> on_fire:(now:int -> unit) -> t
  (** [period] is the desired firing rate in cycles. *)

  val hook : t -> Interp.hooks -> Interp.hooks
  (** Wrap interpreter hooks so injected checks drive this
      framework. *)

  val fires : t -> int
end
