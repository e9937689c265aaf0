(** Simulated threads as effect-based coroutines.

    Code running inside a coroutine models the passage of time by
    performing [consume n] ("burn [n] cycles of CPU") or [overhead n]
    (the same, charged as runtime overhead), cooperates with [yield],
    and talks to whatever scheduler is driving it through typed
    {!Request} values.  The scheduler receives a {!status} each time
    the coroutine pauses, and decides when (in virtual time) and where
    (on which simulated core) to {!resume} it.

    Requests are an open (extensible) GADT: each kernel model extends
    [Request.t] with its own operations (spawn, lock, wait, ...) and
    interprets them in its scheduling loop.  The coroutine layer is
    policy-free.

    Each coroutine is one {!t}: the cycles it owes, the unit request
    it waits on, and one continuation slot.  Its effect handler and
    the closures the handler hands the runtime are built once, when
    the first {!resume} starts it.  A pause for cycles, a [yield] or a
    unit request writes its payload and continuation into the slot and
    returns a constant status, so it allocates only the effect and the
    continuation OCaml itself makes: 5 minor words for [consume] and
    [overhead].  A {!query} keeps a closure per pause; it serves the
    rare requests that reply with a value. *)

module Request : sig
  type _ t = ..
  (** Extensible scheduler-request type.  ['a] is the reply type. *)
end

type t
(** One coroutine. *)

type status =
  | Done
  | Failed of exn
  | Work  (** Paused to burn {!owed} cycles of work. *)
  | Overhead  (** Paused to burn {!owed} cycles of runtime overhead. *)
  | Yielded  (** Paused at a cooperative yield point. *)
  | Requested  (** Paused on the unit request {!pending}. *)
  | Queried : 'a Request.t * ('a -> status) -> status
      (** Paused on a query; continue with the reply. *)

val create : (unit -> unit) -> t
(** A coroutine that runs [body] from its first {!resume}; until then
    it holds no stack. *)

val resume : t -> status
(** Run the coroutine from its slot to its next pause (or completion).
    Every status but [Queried] resumes this way; the scheduler may
    split a [Work] or [Overhead] pause's cycles across preemptions and
    track the remainder itself. *)

val owed : t -> int
(** The cycles of the current [Work] or [Overhead] pause. *)

val pending : t -> unit Request.t
(** The request of the current [Requested] pause. *)

val consume : int -> unit
(** Within a coroutine: account [n >= 0] cycles of simulated CPU
    work.  [consume 0] is a no-op that does not suspend. *)

val overhead : int -> unit
(** Within a coroutine: account [n >= 0] cycles of runtime overhead,
    as {!consume} does work. *)

val yield : unit -> unit
(** Within a coroutine: offer the scheduler a switch point. *)

val request : unit Request.t -> unit
(** Within a coroutine: make a request with no reply and pause until
    the scheduler resumes it. *)

val query : 'a Request.t -> 'a
(** Within a coroutine: make a request and wait for its reply. *)

exception Not_in_coroutine
(** Raised when a pause is attempted outside a coroutine. *)
