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
  | Or
  | Xor
  | Shl
  | Shr
  | Lt
  | Le
  | Eq
  | Ne

type guard_kind = Guard_addr | Guard_region of { length : operand }

type inst =
  | Bin of { dst : reg; op : binop; a : operand; b : operand }
  | Fbin of { dst : reg; op : binop; a : operand; b : operand }
  | Mov of { dst : reg; src : operand }
  | Load of { dst : reg; base : operand; offset : operand }
  | Store of { base : operand; offset : operand; value : operand }
  | Alloc of { dst : reg; size : operand }
  | Free of { base : operand }
  | Call of { dst : reg option; callee : string; args : operand list }
  | Guard of { base : operand; offset : operand; kind : guard_kind }
  | Track of { base : operand; tkind : [ `Alloc of operand | `Free ] }
  | Callback of { cb : string }
  | Poll of { device : int }

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
  mutable blocks : block array;
  entry : label;
  mutable next_reg : reg;
}

type modul = { funcs : (string, func) Hashtbl.t }

let create_module () = { funcs = Hashtbl.create 16 }

let add_func m f =
  if Hashtbl.mem m.funcs f.fname then
    invalid_arg (Printf.sprintf "Ir.add_func: duplicate %s" f.fname);
  Hashtbl.add m.funcs f.fname f

let find_func m name = Hashtbl.find m.funcs name

let block f l = f.blocks.(l)

(* ------------------------------------------------------------------ *)
(* Builder *)

module Build = struct
  (* Blocks under construction accumulate instructions in reverse. *)
  type proto = {
    pid : label;
    mutable rev_insts : inst list;
    mutable pterm : terminator option;
  }

  type t = {
    name : string;
    bparams : reg list;
    mutable protos : proto list;  (* reverse order of creation *)
    mutable nblocks : int;
    mutable nregs : int;
    mutable cursor : proto option;
  }

  let start ~name ~nparams =
    let params = List.init nparams Fun.id in
    {
      name;
      bparams = params;
      protos = [];
      nblocks = 0;
      nregs = nparams;
      cursor = None;
    }

  let params t = t.bparams

  let new_block t =
    let p = { pid = t.nblocks; rev_insts = []; pterm = None } in
    t.nblocks <- t.nblocks + 1;
    t.protos <- p :: t.protos;
    if t.cursor = None then t.cursor <- Some p;
    p.pid

  let find_proto t l =
    match List.find_opt (fun p -> p.pid = l) t.protos with
    | Some p -> p
    | None -> invalid_arg (Printf.sprintf "Build: no block L%d" l)

  let set_cursor t l = t.cursor <- Some (find_proto t l)

  let cursor t =
    match t.cursor with
    | Some p -> p
    | None -> invalid_arg "Build: no cursor block"

  let emit t i =
    let p = cursor t in
    p.rev_insts <- i :: p.rev_insts

  let fresh t =
    let r = t.nregs in
    t.nregs <- r + 1;
    r

  let bin t op a b =
    let dst = fresh t in
    emit t (Bin { dst; op; a; b });
    dst

  let fbin t op a b =
    let dst = fresh t in
    emit t (Fbin { dst; op; a; b });
    dst

  let mov t src =
    let dst = fresh t in
    emit t (Mov { dst; src });
    dst

  let load t ~base ~offset =
    let dst = fresh t in
    emit t (Load { dst; base; offset });
    dst

  let store t ~base ~offset ~value = emit t (Store { base; offset; value })

  let alloc t ~size =
    let dst = fresh t in
    emit t (Alloc { dst; size });
    dst

  let free t ~base = emit t (Free { base })

  let call t ?(dst = false) callee args =
    if dst then begin
      let d = fresh t in
      emit t (Call { dst = Some d; callee; args });
      Some d
    end
    else begin
      emit t (Call { dst = None; callee; args });
      None
    end

  let set_term t l term = (find_proto t l).pterm <- Some term

  let terminate t term = (cursor t).pterm <- Some term

  let finish t =
    let protos = List.rev t.protos in
    let blocks =
      protos
      |> List.map (fun p ->
             match p.pterm with
             | None ->
                 invalid_arg
                   (Printf.sprintf "Build.finish: block L%d of %s lacks a terminator"
                      p.pid t.name)
             | Some term ->
                 { bid = p.pid; insts = List.rev p.rev_insts; term })
      |> Array.of_list
    in
    if Array.length blocks = 0 then
      invalid_arg "Build.finish: function has no blocks";
    {
      fname = t.name;
      params = t.bparams;
      blocks;
      entry = 0;
      next_reg = t.nregs;
    }
end
