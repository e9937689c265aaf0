(* Timing and spans for the one repetition a child process runs.

   Workloads reach the simulator's layers only through [call], so the
   wall time and allocation a repetition reports cover exactly the
   layers' public functions: setup, checks and readout around them
   are excluded.  Every call also leaves a span (layer, name, start,
   end, minor words); they stay in memory and go out with the child's
   result. *)

type span = {
  layer : string;
  name : string;
  t0 : float;
  t1 : float;
  words : float;  (** minor-heap words allocated inside the span *)
}

(* Set when the child only measures its setup: the first [call]
   raises [Setup_done] instead of running. *)
let setup_only = ref false

exception Setup_done

(* Set for the traced repetition, which runs under a collecting
   observability context and may add untimed [span]s. *)
let traced = ref false

let t_first = ref Float.nan
let wall = ref 0.0
let words = ref 0.0
let spans : span list ref = ref []

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let measure ~layer ~name f =
  let w0 = minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  let dw = minor_words () -. w0 in
  spans := { layer; name; t0; t1; words = dw } :: !spans;
  (r, t0, t1 -. t0, dw)

(* A timed call into a layer: returns its result, seconds and minor
   words. *)
let call ~layer ~name f =
  if !setup_only then begin
    t_first := Unix.gettimeofday ();
    raise Setup_done
  end;
  let r, t0, dt, dw = measure ~layer ~name f in
  if Float.is_nan !t_first then t_first := t0;
  wall := !wall +. dt;
  words := !words +. dw;
  (r, dt, dw)

(* An untimed span: recorded, but outside the repetition's wall time
   and allocation. *)
let span ~layer ~name f =
  let r, _, dt, dw = measure ~layer ~name f in
  (r, dt, dw)
