open Iw_ir
(** Generic bounded-gap code placement.

    The machinery shared by compiler-based timing (§IV-C) and blended
    device polling (§V-C): statically place injected instructions so
    that, on {e every} dynamic path, at most [budget] cycles elapse
    between consecutive injected sites.  Three rules make it sound on
    arbitrary CFGs:

    + every loop body contains at least one site (cycles cannot
      accumulate unchecked);
    + every function that makes calls, or whose body exceeds the
      budget, gets a site at entry (gaps cannot hide across call
      boundaries);
    + within straight-line code, a max-over-predecessors residue
      dataflow inserts a site before the instruction that would
      overflow the budget. *)

val instrument :
  budget:int -> site:Ir.inst -> site_cost:int -> Ir.modul -> int