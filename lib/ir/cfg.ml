type t = {
  f : Ir.func;
  succ : Ir.label list array;
  pred : Ir.label list array;
  rpo : Ir.label list;  (* reverse postorder over reachable blocks *)
  idom : int array;  (* -1 = unreachable or entry *)
}

let successors_of_term = function
  | Ir.Jmp l -> [ l ]
  | Ir.Br { if_true; if_false; _ } ->
      if if_true = if_false then [ if_true ] else [ if_true; if_false ]
  | Ir.Ret _ -> []

let compute_rpo f succ =
  let n = Array.length f.Ir.blocks in
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter dfs succ.(b);
      order := b :: !order
    end
  in
  dfs f.Ir.entry;
  !order

(* Cooper-Harvey-Kennedy iterative dominators on reverse postorder. *)
let compute_idom f succ pred rpo =
  ignore succ;
  let n = Array.length f.Ir.blocks in
  let rpo_index = Array.make n (-1) in
  List.iteri (fun i b -> rpo_index.(b) <- i) rpo;
  let idom = Array.make n (-1) in
  idom.(f.Ir.entry) <- f.Ir.entry;
  let rec intersect a b =
    if a = b then a
    else if rpo_index.(a) > rpo_index.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> f.Ir.entry then begin
          let processed_preds =
            List.filter (fun p -> idom.(p) <> -1) pred.(b)
          in
          match processed_preds with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idom.(b) <> new_idom then begin
                idom.(b) <- new_idom;
                changed := true
              end
        end)
      rpo
  done;
  idom

let of_func f =
  let n = Array.length f.Ir.blocks in
  let succ = Array.make n [] and pred = Array.make n [] in
  Array.iter
    (fun b ->
      let ss = successors_of_term b.Ir.term in
      succ.(b.Ir.bid) <- ss;
      List.iter (fun s -> pred.(s) <- b.Ir.bid :: pred.(s)) ss)
    f.Ir.blocks;
  Array.iteri (fun i l -> pred.(i) <- List.rev l) pred;
  let rpo = compute_rpo f succ in
  let idom = compute_idom f succ pred rpo in
  { f; succ; pred; rpo; idom }

let successors t l = t.succ.(l)
let predecessors t l = t.pred.(l)
let reachable t = t.rpo

let dominates t a b =
  if t.idom.(b) = -1 then false
  else begin
    let rec walk x = if x = a then true else if x = t.f.Ir.entry then a = x else walk t.idom.(x) in
    walk b
  end

let immediate_dominator t b =
  if b = t.f.Ir.entry || t.idom.(b) = -1 then None else Some t.idom.(b)

type loop = {
  header : Ir.label;
  body : Ir.label list;
  latches : Ir.label list;
  depth : int;
}

let loops t =
  (* Back edge: n -> h where h dominates n. *)
  let back_edges = ref [] in
  List.iter
    (fun n ->
      List.iter
        (fun h -> if dominates t h n then back_edges := (n, h) :: !back_edges)
        t.succ.(n))
    t.rpo;
  (* Group by header. *)
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (n, h) ->
      let cur = try Hashtbl.find by_header h with Not_found -> [] in
      Hashtbl.replace by_header h (n :: cur))
    !back_edges;
  (* Natural loop body: header plus everything that reaches a latch
     without passing through the header. *)
  let body_of header latches =
    let in_loop = Hashtbl.create 8 in
    Hashtbl.replace in_loop header ();
    let rec add n =
      if not (Hashtbl.mem in_loop n) then begin
        Hashtbl.replace in_loop n ();
        List.iter add t.pred.(n)
      end
    in
    List.iter add latches;
    Hashtbl.fold (fun b () acc -> b :: acc) in_loop [] |> List.sort compare
  in
  let raw =
    Hashtbl.fold
      (fun header latches acc ->
        (header, latches, body_of header latches) :: acc)
      by_header []
  in
  (* Depth: number of loop bodies a header belongs to. *)
  let depth_of header =
    List.length
      (List.filter (fun (_, _, body) -> List.mem header body) raw)
  in
  raw
  |> List.map (fun (header, latches, body) ->
         { header; body; latches; depth = depth_of header })
  |> List.sort (fun a b -> compare a.depth b.depth)

let defs_of_inst = function
  | Ir.Bin { dst; _ }
  | Ir.Fbin { dst; _ }
  | Ir.Mov { dst; _ }
  | Ir.Load { dst; _ }
  | Ir.Alloc { dst; _ } ->
      Some dst
  | Ir.Call { dst; _ } -> dst
  | Ir.Store _ | Ir.Free _ | Ir.Guard _ | Ir.Track _ | Ir.Callback _
  | Ir.Poll _ ->
      None

let defs_in f labels =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun l ->
      List.iter
        (fun i ->
          match defs_of_inst i with
          | Some d -> Hashtbl.replace tbl d ()
          | None -> ())
        f.Ir.blocks.(l).Ir.insts)
    labels;
  tbl

let operand_invariant defs = function
  | Ir.Imm _ -> true
  | Ir.Reg r -> not (Hashtbl.mem defs r)
