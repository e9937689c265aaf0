open Iw_ir
let site = Ir.Callback { cb = "nk_time_hook" }

let instrument ~check_budget m =
  Placement.instrument ~budget:check_budget ~site ~site_cost:Iw_ir.Cost.callback
    m

type accuracy = {
  program : string;
  budget : int;
  max_gap : int;
  checks : int;
  cycles : int;
  overhead_pct : float;
}

let measure ~check_budget (p : Iw_ir.Programs.program) =
  let plain = p.build () in
  let base = Iw_ir.Interp.run plain p.entry p.args in
  let m = p.build () in
  ignore (instrument ~check_budget m);
  let timed = Iw_ir.Interp.run m p.entry p.args in
  (match (base.ret, timed.ret) with
  | Some a, Some b when a <> b ->
      invalid_arg
        (Printf.sprintf "timing pass changed %s's result: %d -> %d" p.name a b)
  | _ -> ());
  {
    program = p.name;
    budget = check_budget;
    max_gap = timed.max_callback_gap;
    checks = timed.callbacks;
    cycles = timed.cycles;
    overhead_pct =
      100.0
      *. (float_of_int (timed.cycles - base.cycles) /. float_of_int base.cycles);
  }

module Framework = struct
  type t = {
    period : int;
    fire_cost : int;
    on_fire : now:int -> unit;
    mutable next_deadline : int;
    mutable fires : int;
  }

  let create ~period ~fire_cost ~on_fire =
    if period <= 0 then invalid_arg "Framework.create: period <= 0";
    { period; fire_cost; on_fire; next_deadline = period; fires = 0 }

  let hook t (hooks : Iw_ir.Interp.hooks) =
    {
      hooks with
      on_callback =
        (fun name ~cycles ->
          hooks.on_callback name ~cycles;
          if cycles >= t.next_deadline then begin
            t.fires <- t.fires + 1;
            t.next_deadline <- cycles + t.period;
            t.on_fire ~now:cycles
          end);
    }

  let fires t = t.fires
end