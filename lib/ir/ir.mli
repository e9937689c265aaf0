(** A miniature LLVM-like intermediate representation.

    Just enough IR to host the paper's compiler transformations for
    real: functions of basic blocks over mutable virtual registers,
    with explicit base+offset addressing so region-based reasoning
    (CARAT, §IV-A) has something to reason about, and instruction
    kinds for the code the passes inject (guards, tracking calls,
    timing callbacks, device polls).

    There is deliberately no SSA: registers are mutable variables, a
    register is loop-invariant iff it is never assigned inside the
    loop.  That keeps the analyses honest but small. *)

type reg = int
type label = int

type operand = Reg of reg | Imm of int

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Lt
  | Eq
  | Ne

type guard_kind =
  | Guard_addr  (** Exact per-access check: is base+offset mapped? *)
  | Guard_region of { length : operand }
      (** Hoisted range check: is [base, base+length) mapped? *)

type inst =
  | Bin of { dst : reg; op : binop; a : operand; b : operand }
  | Fbin of { dst : reg; op : binop; a : operand; b : operand }
      (** Floating-point cost class (values are still ints). *)
  | Mov of { dst : reg; src : operand }
  | Load of { dst : reg; base : operand; offset : operand }
  | Store of { base : operand; offset : operand; value : operand }
  | Alloc of { dst : reg; size : operand }
      (** Heap allocation; yields the region base address. *)
  | Free of { base : operand }
  | Call of { dst : reg option; callee : string; args : operand list }
  | Guard of { base : operand; offset : operand; kind : guard_kind }
      (** CARAT-injected protection check. *)
  | Track of { base : operand; tkind : [ `Alloc of operand | `Free ] }
      (** CARAT-injected allocation tracking ([`Alloc size]). *)
  | Callback of { cb : string }
      (** Compiler-timing-injected call into the timer framework. *)
  | Poll of { device : int }  (** Blending-injected device poll. *)

type terminator =
  | Jmp of label
  | Br of { cond : operand; if_true : label; if_false : label }
  | Ret of operand option

type block = {
  bid : label;
  mutable insts : inst list;
  mutable term : terminator;
}

type func = {
  fname : string;
  params : reg list;
  mutable blocks : block array;  (** Indexed by [bid]. *)
  entry : label;
  mutable next_reg : reg;
}

type modul = { funcs : (string, func) Hashtbl.t }

val create_module : unit -> modul
val add_func : modul -> func -> unit
val find_func : modul -> string -> func
(** @raise Not_found *)

val block : func -> label -> block

(** Imperative function builder: blocks are created, then filled via a
    cursor. *)
module Build : sig
  type t

  val start : name:string -> nparams:int -> t
  val params : t -> reg list
  val new_block : t -> label
  val set_cursor : t -> label -> unit
  val emit : t -> inst -> unit

  val bin : t -> binop -> operand -> operand -> reg
  (** Emit into a fresh destination register. *)

  val fbin : t -> binop -> operand -> operand -> reg
  val mov : t -> operand -> reg
  val load : t -> base:operand -> offset:operand -> reg
  val store : t -> base:operand -> offset:operand -> value:operand -> unit
  val alloc : t -> size:operand -> reg
  val free : t -> base:operand -> unit
  val call : t -> ?dst:bool -> string -> operand list -> reg option
  val set_term : t -> label -> terminator -> unit
  val terminate : t -> terminator -> unit
  (** Terminate the cursor block. *)

  val finish : t -> func
  (** @raise Invalid_argument if any block lacks a terminator. *)
end
