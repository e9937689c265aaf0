(** Minimal JSON reader + escaping for the Chrome trace exporter and
    its validator (the project depends on no JSON library). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

val parse : string -> t
(** Parse a complete JSON document; raises {!Bad} with an offset on
    malformed input or trailing garbage. *)

val member : string -> t -> t option
(** Object field lookup; [None] on non-objects or missing keys. *)

val read_file : string -> string

val escape : Buffer.t -> string -> unit
(** Append [s] with JSON string escaping (ASCII control chars,
    quotes, backslashes). *)
