(* CARAT (SecIV-A): compile a program with guards and tracking, run it
   under the CARAT runtime, and defragment physical memory *while it
   runs* - data moves under its feet, the forwarding map keeps it
   correct, and no page table is anywhere in sight.

     dune exec examples/carat_defrag.exe *)

open Iw_ir
open Iw_carat

let () =
  let program = Programs.stream_triad 2000 in
  Printf.printf "program: %s (%s)\n" program.name program.description;

  (* "Compile": instrument with the CARAT pass + timing checks. *)
  let m = program.build () in
  Iw_passes.Carat_pass.instrument m;
  let checks = Iw_passes.Timing_pass.instrument ~check_budget:2000 m in
  let stats = Iw_passes.Carat_pass.guard_stats m in
  Printf.printf
    "instrumented: %d exact guards, %d region guards, %d tracks, %d timing checks\n"
    stats.exact_guards stats.region_guards stats.tracks checks;

  (* The timer framework periodically defragments the heap mid-run. *)
  let rt = Runtime.create () in
  let defrags = ref 0 and moved = ref 0 in
  let fw =
    Iw_passes.Timing_pass.Framework.create ~period:15_000
      ~on_fire:(fun ~now:_ ->
        incr defrags;
        moved := !moved + Runtime.defragment rt)
  in
  let hooks = Iw_passes.Timing_pass.Framework.hook fw (Runtime.hooks rt) in
  let r = Interp.run ~hooks m program.entry program.args in

  Printf.printf "ran %d instructions, %d guards checked, 0 faults\n" r.dyn_insts
    (Runtime.guard_checks rt);
  ignore !moved;
  Printf.printf "defragmented %d times, %d region moves (%d words copied)\n"
    !defrags (Runtime.moves rt) (Runtime.moved_words rt);
  Printf.printf "result: %d (expected %d) - data movement was invisible\n"
    (Option.get r.ret)
    (Option.get program.expected);
  assert (r.ret = program.expected)
