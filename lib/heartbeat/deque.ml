type 'a t = { mutable items : 'a list (* bottom first *) }

let create () = { items = [] }
let push_bottom t x = t.items <- x :: t.items

let pop_bottom t =
  match t.items with
  | [] -> None
  | x :: rest ->
      t.items <- rest;
      Some x

let steal_top t =
  match List.rev t.items with
  | [] -> None
  | x :: rest_rev ->
      t.items <- List.rev rest_rev;
      Some x

let length t = List.length t.items
