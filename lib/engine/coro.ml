module Request = struct
  type _ t = ..
end

type status =
  | Done
  | Failed of exn
  | Work
  | Overhead
  | Yielded
  | Requested
  | Queried : 'a Request.t * ('a -> status) -> status

exception Not_in_coroutine

type _ Effect.t +=
  | Hold : unit Effect.t
  | Consume : int -> unit Effect.t
  | Charge : int -> unit Effect.t
  | Yield : unit Effect.t
  | Await : unit Request.t -> unit Effect.t
  | Query : 'a Request.t -> 'a Effect.t

open Effect.Deep

(* The request a slot names before its coroutine first makes one. *)
type _ Request.t += No_request : unit Request.t

(* The continuation a slot holds before its coroutine first pauses:
   made once, by a coroutine that pauses and is never resumed. *)
let placeholder : (unit, status) continuation =
  let slot : (unit, status) continuation option ref = ref None in
  ignore
    (match_with Effect.perform Hold
       {
         retc = (fun () -> Done);
         exnc = (fun e -> Failed e);
         effc =
           (fun (type a) (eff : a Effect.t) ->
             match eff with
             | Hold ->
                 Some
                   (fun (k : (a, status) continuation) ->
                     slot := Some k;
                     Done)
             | _ -> None);
       });
  Option.get !slot

type t = {
  mutable k : (unit, status) continuation;  (* [placeholder] until a pause *)
  mutable owed : int;
  mutable pending : unit Request.t;
  mutable paused : status;  (* what the pause in [k] returns *)
  mutable body : unit -> unit;  (* what the first [resume] runs *)
}

let create body =
  { k = placeholder; owed = 0; pending = No_request; paused = Done; body }

(* The first [resume]: build the coroutine's handler and run [body] to
   its first pause.  Every pause but a query goes through [t]'s one
   slot: the handler notes the payload and the status, and [store],
   built here once, parks the continuation and returns that status. *)
let start t =
  let store =
    Some
      (fun k ->
        t.k <- k;
        t.paused)
  in
  let pause owed paused =
    t.owed <- owed;
    t.paused <- paused;
    store
  in
  let body = t.body in
  t.body <- ignore;
  match_with body ()
    {
      retc = (fun () -> Done);
      exnc = (fun e -> Failed e);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, status) continuation -> status) option ->
          match eff with
          | Consume n -> pause n Work
          | Charge n -> pause n Overhead
          | Yield -> pause 0 Yielded
          | Await r ->
              t.pending <- r;
              pause 0 Requested
          | Query q ->
              Some
                (fun (k : (a, status) continuation) ->
                  Queried (q, fun v -> continue k v))
          | _ -> None);
    }

let resume t = if t.k == placeholder then start t else continue t.k ()
let owed t = t.owed
let pending t = t.pending

let suspend eff =
  try Effect.perform eff with Effect.Unhandled _ -> raise Not_in_coroutine

let consume n =
  if n < 0 then invalid_arg "Coro.consume: negative cycles";
  if n > 0 then suspend (Consume n)

let overhead n =
  if n < 0 then invalid_arg "Coro.overhead: negative cycles";
  if n > 0 then suspend (Charge n)

let yield () = suspend Yield
let request r = suspend (Await r)
let query q = suspend (Query q)
