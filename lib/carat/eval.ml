open Iw_ir

type row = {
  name : string;
  suite : string;
  base_cycles : int;
  naive_pct : float;
  optimized_pct : float;
  dyn_guards_naive : int;
  dyn_guards_opt : int;
}

let run_config ?(label = "baseline") (p : Programs.program) config =
  let m = p.build () in
  (match config with
  | Some c -> Iw_passes.Carat_pass.instrument ~config:c m
  | None -> ());
  let rt = Runtime.create () in
  Runtime.traced_run rt
    ~name:(p.name ^ ":" ^ label)
    (fun () -> Interp.run ~hooks:(Runtime.hooks rt) m p.entry p.args)

let check_result (p : Programs.program) label (r : Interp.result) =
  match (p.expected, r.ret) with
  | Some want, Some got when want <> got ->
      invalid_arg
        (Printf.sprintf "carat %s changed %s: expected %d, got %d" label p.name
           want got)
  | _ -> ()

let run_program (p : Programs.program) =
  let base = run_config p None in
  check_result p "baseline" base;
  let naive = run_config ~label:"naive" p (Some Iw_passes.Carat_pass.naive) in
  check_result p "naive" naive;
  let opt =
    run_config ~label:"optimized" p (Some Iw_passes.Carat_pass.optimized)
  in
  check_result p "optimized" opt;
  let pct a b = 100.0 *. (float_of_int (a - b) /. float_of_int b) in
  {
    name = p.name;
    suite = p.suite;
    base_cycles = base.cycles;
    naive_pct = pct naive.cycles base.cycles;
    optimized_pct = pct opt.cycles base.cycles;
    dyn_guards_naive = naive.guards;
    dyn_guards_opt = opt.guards;
  }

let table () = List.map run_program (Programs.carat_suite ())

let geomean f rows =
  (* Geometric mean of the slowdown factors, reported back as %. *)
  let logs =
    List.map (fun r -> log (1.0 +. (f r /. 100.0))) rows
  in
  let mean = List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs) in
  100.0 *. (exp mean -. 1.0)

let geomean_naive rows = geomean (fun r -> r.naive_pct) rows
let geomean_optimized rows = geomean (fun r -> r.optimized_pct) rows
