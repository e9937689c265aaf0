(* Minimal hand-rolled JSON reader (the project depends on no JSON
   library) for the Chrome trace validator.  Just enough of the
   grammar to read back what our exporter writes. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (
      pos := !pos + l;
      v)
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' ->
              Buffer.add_char b '"';
              advance ();
              go ()
          | Some '\\' ->
              Buffer.add_char b '\\';
              advance ();
              go ()
          | Some '/' ->
              Buffer.add_char b '/';
              advance ();
              go ()
          | Some 'n' ->
              Buffer.add_char b '\n';
              advance ();
              go ()
          | Some 't' ->
              Buffer.add_char b '\t';
              advance ();
              go ()
          | Some 'r' ->
              Buffer.add_char b '\r';
              advance ();
              go ()
          | Some 'b' ->
              Buffer.add_char b '\b';
              advance ();
              go ()
          | Some 'f' ->
              Buffer.add_char b '\012';
              advance ();
              go ()
          | Some 'u' ->
              if !pos + 4 >= n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
              (* ASCII only; our exporters never emit higher codepoints. *)
              Buffer.add_char b (Char.chr (code land 0x7f));
              pos := !pos + 5;
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while match peek () with Some c when is_num_char c -> true | _ -> false do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' -> parse_obj ()
    | Some '[' -> parse_arr ()
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | _ -> fail "expected value"
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then (
      advance ();
      Obj [])
    else
      let rec members acc =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            members ((k, v) :: acc)
        | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
        | _ -> fail "expected ',' or '}'"
      in
      members []
  and parse_arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then (
      advance ();
      Arr [])
    else
      let rec elems acc =
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            elems (v :: acc)
        | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']'"
      in
      elems []
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* String escaping for the Chrome exporter. *)
let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s
