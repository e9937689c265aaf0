(* Export audit: print every [val] of a library interface that no
   other source file reaches, then every record field that no source
   file reads and every variant constructor that none builds.

   Usage: exports_audit.exe DIR...  (run from the repository root; the
   declarations audited are those of lib/*/*.ml{,i}, the files
   searched every .ml and .mli under the DIRs).

   A [val v] of m.mli counts as used when some other file names it
   qualified, as [M.v] (or [Lib.M.v]), or through [A.v] where the file
   aliases [module A = ... M], or when the file has the bare word [v]
   and opens [M] ([open M], [let open M], [M.( ... )]).  A [val v]
   inside a [module N : sig ... end] block of m.mli counts as used
   through [N.v] or [M.N.v].  Comments and string literals are not
   searched.  Module names are matched without their library, so two
   libraries' modules of the same name share their users. *)

type token = Id of string | Dot | Lparen | Eq | Other

let is_upper c = c >= 'A' && c <= 'Z'
let is_lower c = (c >= 'a' && c <= 'z') || c = '_'
let is_ident c = is_upper c || is_lower c || (c >= '0' && c <= '9') || c = '\''

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Identifiers and the punctuation the patterns below need; comments
   (nested), string and character literals are skipped. *)
let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  let rec skip_string i =
    if i >= n then n
    else if s.[i] = '\\' then skip_string (i + 2)
    else if s.[i] = '"' then i + 1
    else skip_string (i + 1)
  in
  let rec skip_comment depth i =
    if i >= n || depth = 0 then i
    else if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then
      skip_comment (depth + 1) (i + 2)
    else if i + 1 < n && s.[i] = '*' && s.[i + 1] = ')' then
      skip_comment (depth - 1) (i + 2)
    else if s.[i] = '"' then skip_comment depth (skip_string (i + 1))
    else skip_comment depth (i + 1)
  in
  let rec go i =
    if i < n then
      match s.[i] with
      | '(' when i + 1 < n && s.[i + 1] = '*' -> go (skip_comment 1 (i + 2))
      | '"' -> go (skip_string (i + 1))
      | '\'' when i + 3 < n && s.[i + 1] = '\\' ->
          go (try String.index_from s (i + 3) '\'' + 1 with Not_found -> n)
      | '\'' when i + 2 < n && s.[i + 2] = '\'' -> go (i + 3)
      | '.' ->
          emit Dot;
          go (i + 1)
      | '(' ->
          emit Lparen;
          go (i + 1)
      | '=' ->
          emit Eq;
          go (i + 1)
      | c when is_upper c || is_lower c ->
          let j = ref i in
          while !j < n && is_ident s.[!j] do
            incr j
          done;
          emit (Id (String.sub s i (!j - i)));
          go !j
      | c when c >= '0' && c <= '9' ->
          let j = ref i in
          while !j < n && (is_ident s.[!j] || s.[!j] = '.') do
            incr j
          done;
          emit Other;
          go !j
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | _ ->
          emit Other;
          go (i + 1)
  in
  go 0;
  List.rev !toks

let is_mod = function Id m -> is_upper m.[0] | _ -> false

(* [M1.M2. ... Mk] at the head of [toks]: the components and the rest. *)
let rec mod_path acc = function
  | Id m :: Dot :: (Id m' :: _ as rest) when is_upper m.[0] && is_upper m'.[0] ->
      mod_path (m :: acc) rest
  | Id m :: rest when is_upper m.[0] -> (List.rev (m :: acc), rest)
  | rest -> (List.rev acc, rest)

let last l = List.nth l (List.length l - 1)

(* What one file offers the audit. *)
type uses = {
  qualified : (string * string, unit) Hashtbl.t;  (* (module, value) *)
  opened : (string, unit) Hashtbl.t;
  bare : (string, unit) Hashtbl.t;
}

let scan path =
  let u =
    {
      qualified = Hashtbl.create 256;
      opened = Hashtbl.create 8;
      bare = Hashtbl.create 512;
    }
  in
  let aliases = Hashtbl.create 8 in
  let resolve m = Option.value (Hashtbl.find_opt aliases m) ~default:m in
  let rec go after_dot = function
    | [] -> ()
    | Id "open" :: rest -> (
        match mod_path [] (match rest with Other :: r -> r | r -> r) with
        | [], rest -> go false rest
        | p, rest ->
            Hashtbl.replace u.opened (resolve (last p)) ();
            go false rest)
    | Id "module" :: Id a :: Eq :: (t :: _ as rest) when is_mod t ->
        let p, rest = mod_path [] rest in
        Hashtbl.replace aliases a (resolve (last p));
        go false rest
    | (Id m :: _) as toks when is_upper m.[0] -> (
        match mod_path [] toks with
        | p, Dot :: Id v :: rest when is_lower v.[0] ->
            Hashtbl.replace u.qualified (resolve (last p), v) ();
            go true rest
        | p, Dot :: Lparen :: rest ->
            Hashtbl.replace u.opened (resolve (last p)) ();
            go false rest
        | _, rest -> go false rest)
    | Id v :: rest ->
        if is_lower v.[0] && not after_dot then Hashtbl.replace u.bare v ();
        go false rest
    | Dot :: rest -> go true rest
    | _ :: rest -> go false rest
  in
  go false (tokenize (read_file path));
  u

(* Every [val] of an interface, with the nested module it sits in. *)
let vals_of_mli path =
  let rec go stack pending acc = function
    | [] -> List.rev acc
    | Id "module" :: Id m :: rest -> go stack (Some m) acc rest
    | Id "sig" :: rest ->
        go (Option.value pending ~default:"" :: stack) None acc rest
    | Id "end" :: rest -> go (match stack with _ :: s -> s | [] -> []) None acc rest
    | Id "val" :: Id v :: rest when is_lower v.[0] ->
        let inner = match stack with n :: _ -> Some n | [] -> None in
        go stack pending ((inner, v) :: acc) rest
    | _ :: rest -> go stack pending acc rest
  in
  go [] None [] (tokenize (read_file path))

let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then sources p
         else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
         then [ p ]
         else [])

(* Record fields and variant constructors, from the parse tree.  A
   field counts as read when some file projects it ([e.f]) or names it
   in a record pattern; a write ([e.f <- v]), a record literal and a
   [{ r with f = v }] copy do not count.  A constructor counts as built
   when it appears in an expression; a pattern does not count.  Both
   match by name alone, so a clash can hide a dead one but never mark
   a live one dead.  Unlike a value, a field or constructor that only
   its own module uses still counts as used. *)

let walk (it : Ast_iterator.iterator) path =
  let lexbuf = Lexing.from_string (read_file path) in
  Location.init lexbuf path;
  if Filename.check_suffix path ".mli" then
    it.signature it (Parse.interface lexbuf)
  else it.structure it (Parse.implementation lexbuf)

let reads = Hashtbl.create 1024
let builds = Hashtbl.create 1024

let collect_uses =
  let open Ast_iterator in
  let name lid = Longident.last lid.Location.txt in
  {
    default_iterator with
    expr =
      (fun it e ->
        (match e.pexp_desc with
        | Pexp_field (_, f) -> Hashtbl.replace reads (name f) ()
        | Pexp_construct (c, _) -> Hashtbl.replace builds (name c) ()
        | _ -> ());
        default_iterator.expr it e);
    pat =
      (fun it p ->
        (match p.ppat_desc with
        | Ppat_record (fs, _) ->
            List.iter (fun (f, _) -> Hashtbl.replace reads (name f) ()) fs
        | _ -> ());
        default_iterator.pat it p);
  }

(* The fields that a file declares and no file reads, and the
   constructors it declares that no file builds, as [N.ty.name] through
   the nested modules they sit in. *)
let unused path =
  let acc = ref [] and inside = ref [] in
  let nested m k =
    inside := Option.value m ~default:"_" :: !inside;
    k ();
    inside := List.tl !inside
  in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      module_binding =
        (fun it mb ->
          nested mb.pmb_name.txt (fun () ->
              default_iterator.module_binding it mb));
      module_declaration =
        (fun it md ->
          nested md.pmd_name.txt (fun () ->
              default_iterator.module_declaration it md));
      type_declaration =
        (fun it td ->
          let owner = List.rev (td.ptype_name.txt :: !inside) in
          let check used n =
            if not (Hashtbl.mem used n) then
              acc := String.concat "." (owner @ [ n ]) :: !acc
          in
          let fields =
            List.iter (fun (ld : Parsetree.label_declaration) ->
                check reads ld.pld_name.txt)
          in
          (match td.ptype_kind with
          | Ptype_record lds -> fields lds
          | Ptype_variant cds ->
              List.iter
                (fun (cd : Parsetree.constructor_declaration) ->
                  check builds cd.pcd_name.txt;
                  match cd.pcd_args with
                  | Pcstr_record lds -> fields lds
                  | Pcstr_tuple _ -> ())
                cds
          | Ptype_abstract | Ptype_open -> ());
          default_iterator.type_declaration it td);
    }
  in
  walk it path;
  List.rev !acc

let () =
  let dirs = List.tl (Array.to_list Sys.argv) in
  let files = List.concat_map sources dirs in
  let scanned = List.map (fun f -> (Filename.remove_extension f, scan f)) files in
  let lib =
    List.filter
      (fun f -> List.length (String.split_on_char '/' f) = 3)
      (sources "lib")
  in
  let mlis = List.filter (fun f -> Filename.check_suffix f ".mli") lib in
  List.iter
    (fun mli ->
      let base = Filename.remove_extension mli in
      let m = String.capitalize_ascii (Filename.basename base) in
      let used (inner, v) =
        List.exists
          (fun (b, u) ->
            b <> base
            &&
            match inner with
            | Some n -> Hashtbl.mem u.qualified (n, v)
            | None ->
                Hashtbl.mem u.qualified (m, v)
                || (Hashtbl.mem u.opened m && Hashtbl.mem u.bare v))
          scanned
      in
      List.iter
        (fun ((inner, v) as x) ->
          if not (used x) then
            match inner with
            | Some n -> Printf.printf "%s.%s.%s\n" base n v
            | None -> Printf.printf "%s.%s\n" base v)
        (vals_of_mli mli))
    mlis;
  List.iter (walk collect_uses) files;
  (* A type both m.ml and m.mli declare is reported once. *)
  let reported = Hashtbl.create 64 in
  List.iter
    (fun f ->
      List.iter
        (fun n ->
          let n = Filename.remove_extension f ^ "." ^ n in
          if not (Hashtbl.mem reported n) then begin
            Hashtbl.replace reported n ();
            print_endline n
          end)
        (unused f))
    lib
