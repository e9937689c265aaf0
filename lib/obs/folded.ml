(* Folded-stack export: one "frame;frame;... count" line per unique
   stack path, the input format of Brendan Gregg's flamegraph.pl and
   of speedscope's "import folded" mode.  Counts are self cycles, so
   the per-line counts of a well-formed export sum exactly to the
   profile's total traced cycles — [check] verifies that invariant,
   and the test suite and test/smokes.t run it. *)

let to_string (p : Profile.t) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (path, self) -> Buffer.add_string b (Printf.sprintf "%s %d\n" path self))
    p.Profile.folded;
  Buffer.contents b

let write_file (p : Profile.t) path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string p))

(* Parse "path count" lines back; tolerate blank lines. *)
let parse (s : string) : (string * int) list =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         if String.trim line = "" then None
         else
           match String.rindex_opt line ' ' with
           | None -> invalid_arg ("Folded.parse: no count on line: " ^ line)
           | Some i -> (
               let path = String.sub line 0 i in
               let count = String.sub line (i + 1) (String.length line - i - 1) in
               match int_of_string_opt count with
               | Some c -> Some (path, c)
               | None ->
                   invalid_arg ("Folded.parse: bad count on line: " ^ line)))

(* The folded invariant: line counts sum to the profile's total traced
   cycles.  Returns the number of stack lines checked. *)
let check (s : string) ~(total : int) : (int, string) result =
  match parse s with
  | exception Invalid_argument msg -> Error msg
  | lines ->
      let sum = List.fold_left (fun acc (_, c) -> acc + c) 0 lines in
      if sum = total then Ok (List.length lines)
      else
        Error
          (Printf.sprintf "folded self-cycle sum %d <> total traced cycles %d"
             sum total)

let check_file path ~total = check (Json.read_file path) ~total
