open Iw_engine

type spec =
  | Poisson of { rps : float; duration_us : float }
  | Bursty of {
      rps_on : float;
      rps_off : float;
      mean_on_us : float;
      mean_off_us : float;
      duration_us : float;
    }
  | Closed of { clients : int; think_us : float; duration_us : float }

let duration_us = function
  | Poisson { duration_us; _ } | Bursty { duration_us; _ } | Closed { duration_us; _ }
    ->
      duration_us

let offered_rps = function
  | Poisson { rps; _ } -> rps
  | Bursty { rps_on; rps_off; mean_on_us; mean_off_us; _ } ->
      ((rps_on *. mean_on_us) +. (rps_off *. mean_off_us))
      /. (mean_on_us +. mean_off_us)
  | Closed { clients; think_us; _ } ->
      (* Upper bound: every client submitting as fast as its think time
         allows; actual rate also depends on service latency. *)
      float_of_int clients *. 1e6 /. think_us

let is_open = function Poisson _ | Bursty _ -> true | Closed _ -> false

(* ------------------------------------------------------------------ *)
(* Per-request service demand.

   [Dfixed] is the historical behavior: every request costs the
   executor's configured work grant.  The heavy-tailed specs draw a
   per-request cost from a bounded Pareto or a lognormal — the shapes
   real serving traces have — keyed by a *stateless hash* of
   (stream seed, request id) rather than a shared mutable stream.
   That gives the draw its own logical RNG stream for free: it is
   independent of every arrival/dispatch/think draw, stable when
   requests are retried or hedged (same id, same cost), and identical
   whether machines run serially or on parallel domains. *)

type demand =
  | Dfixed
  | Dpareto of { alpha : float; xmin_us : float; xmax_us : float }
  | Dlognorm of { median_us : float; sigma : float }

(* Each range test is negated ([not (v > 0.0)]), so a NaN fails it
   too; an infinite field passes its range test and fails the next. *)
let validate_demand d =
  let field what v in_range range =
    if not in_range then
      invalid_arg (Printf.sprintf "Workload: %s must be %s" what range);
    if not (Float.is_finite v) then
      invalid_arg (Printf.sprintf "Workload: %s must be finite" what)
  in
  match d with
  | Dfixed -> ()
  | Dpareto { alpha; xmin_us; xmax_us } ->
      field "Pareto alpha" alpha (alpha > 0.0) "> 0";
      field "Pareto xmin_us" xmin_us (xmin_us > 0.0) "> 0";
      field "Pareto xmax_us" xmax_us (xmax_us > xmin_us) "> xmin_us"
  | Dlognorm { median_us; sigma } ->
      field "lognormal median_us" median_us (median_us > 0.0) "> 0";
      field "lognormal sigma" sigma (sigma >= 0.0) ">= 0"

(* Two rounds of a 63-bit splitmix-style finalizer; native-int
   multiplies wrap mod 2^63, deterministically, with no boxing.  The
   constants fit OCaml's 63-bit literals. *)
let[@inline] mix63 z =
  let z = (z lxor (z lsr 33)) * 0x3C79AC492BA7B653 in
  let z = (z lxor (z lsr 29)) * 0x1C69B3F74AC4AE35 in
  (z lxor (z lsr 32)) land max_int

(* Uniform in (0,1): the +0.5 offset keeps the draw away from both
   endpoints, so log/pow below never see 0. *)
let[@inline] u01 h =
  (float_of_int (h land ((1 lsl 53) - 1)) +. 0.5) /. 9007199254740992.0

(* Inlined into [demand_cycles] below, where the float result stays
   unboxed; a call from another module boxes it. *)
let[@inline] demand_us dspec ~seed ~id =
  match dspec with
  | Dfixed -> -1.0
  | Dpareto { alpha; xmin_us; xmax_us } ->
      let h = mix63 (seed lxor (id * 0x9E3779B9)) in
      let u = u01 h in
      (* Bounded-Pareto inverse CDF. *)
      let r = (xmin_us /. xmax_us) ** alpha in
      xmin_us /. ((1.0 -. (u *. (1.0 -. r))) ** (1.0 /. alpha))
  | Dlognorm { median_us; sigma } ->
      let h1 = mix63 (seed lxor (id * 0x9E3779B9)) in
      let h2 = mix63 h1 in
      let u1 = u01 h1 and u2 = u01 h2 in
      (* Box-Muller. *)
      let z = sqrt (-2.0 *. log u1) *. cos (6.283185307179586 *. u2) in
      median_us *. exp (sigma *. z)

(* [u01 >= 2^-54], so Box-Muller's [|z|] is at most
   [sqrt (108 ln 2)] < 8.66. *)
let demand_bound_us = function
  | Dfixed -> -1.0
  | Dpareto { xmax_us; _ } -> xmax_us
  | Dlognorm { median_us; sigma } -> median_us *. exp (8.66 *. sigma)

(* [Units.cycles_of_us ~ghz (demand_us dspec ~seed ~id *. scale)],
   floored at one cycle, in one function body so no float is boxed on
   the way: same operations in the same order, so the same cycles. *)
let demand_cycles dspec ~seed ~id ~scale ~ghz =
  match dspec with
  | Dfixed -> -1
  | Dpareto _ | Dlognorm _ ->
      let us = demand_us dspec ~seed ~id in
      max 1 (int_of_float (Float.round (us *. scale *. 1e3 *. ghz)))

let describe = function
  | Poisson { rps; _ } -> Printf.sprintf "poisson %.0f rps" rps
  | Bursty { rps_on; rps_off; _ } ->
      Printf.sprintf "bursty %.0f/%.0f rps" rps_on rps_off
  | Closed { clients; think_us; _ } ->
      Printf.sprintf "closed %d clients, think %.0f us" clients think_us

(* All float state lives in one flat float array: reads and writes of
   float-array elements are unboxed in OCaml, while a mutable float
   field of this (mixed) record would allocate a box on every write.
   Pulling an arrival touches only [g_f], the rng, and [g_on], so the
   generator contributes nothing to the minor heap at steady state. *)
let s_t = 0 (* clock of the last arrival (us) *)

let s_out = 1 (* last arrival produced (us) *)
let s_end = 2 (* when the current MMPP phase flips (us) *)
let s_dur = 3
let s_mean_on = 4 (* inter-arrival mean, on phase; <= 0 = silent *)
let s_mean_off = 5 (* inter-arrival mean, off phase; <= 0 = silent *)
let s_dwell_on = 6 (* phase-dwell means *)
let s_dwell_off = 7
let s_ghz = 8 (* clock rate for [next_cycles] *)
let s_scratch = 9
let slots = 10

type gen = { g_spec : spec; g_rng : Rng.t; g_f : float array; mutable g_on : bool }

(* [Rng.exponential] with the mean read from, and the deviate written
   to, slots of [f]: same draws, same float results, but no float
   crosses a function boundary (which would box it in non-flambda
   builds). *)
let rec exp_into rng (f : float array) ~mean ~dst =
  let u = float_of_int (Rng.raw53 rng) /. 9007199254740992.0 in
  if u <= 1e-12 then exp_into rng f ~mean ~dst
  else f.(dst) <- -.f.(mean) *. log u

let gen spec ~rng ~ghz =
  let reject what = invalid_arg ("Workload.gen: " ^ what) in
  if not (ghz > 0.0) then reject "ghz must be positive";
  (match spec with
  | Poisson { rps; _ } -> if not (rps > 0.0) then reject "Poisson rps must be > 0"
  | Bursty { rps_on; rps_off; mean_on_us; mean_off_us; _ } ->
      if not (rps_on >= 0.0) then reject "bursty rps_on must be >= 0";
      if not (rps_off >= 0.0) then reject "bursty rps_off must be >= 0";
      if not (mean_on_us > 0.0) then reject "bursty mean_on_us must be > 0";
      if not (mean_off_us > 0.0) then reject "bursty mean_off_us must be > 0"
  | Closed _ -> ());
  if not (duration_us spec >= 0.0) then reject "duration_us must be >= 0";
  let f = Array.make slots 0.0 in
  f.(s_dur) <- duration_us spec;
  f.(s_ghz) <- ghz;
  (match spec with
  | Poisson { rps; _ } -> f.(s_mean_on) <- 1e6 /. rps
  | Bursty { rps_on; rps_off; mean_on_us; mean_off_us; _ } ->
      f.(s_mean_on) <- (if rps_on > 0.0 then 1e6 /. rps_on else -1.0);
      f.(s_mean_off) <- (if rps_off > 0.0 then 1e6 /. rps_off else -1.0);
      f.(s_dwell_on) <- mean_on_us;
      f.(s_dwell_off) <- mean_off_us
  | Closed _ -> ());
  let g = { g_spec = spec; g_rng = rng; g_f = f; g_on = true } in
  (match spec with
  | Bursty _ ->
      exp_into rng f ~mean:s_dwell_on ~dst:s_scratch;
      f.(s_end) <- f.(s_scratch)
  | _ -> ());
  g

let flip g =
  let f = g.g_f in
  g.g_on <- not g.g_on;
  exp_into g.g_rng f
    ~mean:(if g.g_on then s_dwell_on else s_dwell_off)
    ~dst:s_scratch;
  f.(s_end) <- f.(s_t) +. f.(s_scratch)

let rec bursty_next g =
  let f = g.g_f in
  if f.(s_t) > f.(s_dur) then false
  else begin
    let mslot = if g.g_on then s_mean_on else s_mean_off in
    if f.(mslot) <= 0.0 then begin
      (* Silent phase: jump to its end and flip. *)
      f.(s_t) <- f.(s_end);
      flip g;
      bursty_next g
    end
    else begin
      exp_into g.g_rng f ~mean:mslot ~dst:s_scratch;
      let t = f.(s_t) +. f.(s_scratch) in
      if t > f.(s_end) then begin
        f.(s_t) <- f.(s_end);
        flip g;
        bursty_next g
      end
      else if t > f.(s_dur) then false
      else begin
        f.(s_t) <- t;
        f.(s_out) <- t;
        true
      end
    end
  end

let next_into g =
  match g.g_spec with
  | Closed _ ->
      invalid_arg
        "Workload.next_cycles: closed-loop spec has no open-loop arrivals"
  | Poisson _ ->
      let f = g.g_f in
      exp_into g.g_rng f ~mean:s_mean_on ~dst:s_scratch;
      let t = f.(s_t) +. f.(s_scratch) in
      if t > f.(s_dur) then false
      else begin
        f.(s_t) <- t;
        f.(s_out) <- t;
        true
      end
  | Bursty _ -> bursty_next g

(* Units.cycles_of_us inlined over the slot array (the [Units] call
   would box the microsecond argument). *)
let next_cycles g =
  if not (next_into g) then -1
  else begin
    let f = g.g_f in
    int_of_float (Float.round (f.(s_out) *. 1e3 *. f.(s_ghz)))
  end
