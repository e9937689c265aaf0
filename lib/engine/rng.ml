(* splitmix64, carried in two 32-bit limbs.

   The straightforward implementation keeps [Int64] state, but every
   [Int64] operation in non-flambda OCaml allocates a box — a handful
   of minor words per draw, on streams the service plane consults
   several times per request.  Carrying the state as two immediate
   ints and doing the 64-bit adds/multiplies in 16/32-bit limb
   arithmetic produces bit-identical output with zero allocation per
   draw ([int]/[bool]/[raw53] never box; [float] boxes only its
   result, and not even that when the caller is inlined).

   The limb arithmetic is checked against an Int64 reference
   implementation in the test suite; every historical stream is
   reproduced exactly. *)

type t = {
  mutable s_hi : int; (* state, high 32 bits *)
  mutable s_lo : int; (* state, low 32 bits *)
  mutable o_hi : int; (* last output, high 32 bits *)
  mutable o_lo : int; (* last output, low 32 bits *)
}

let mask32 = 0xFFFFFFFF

(* golden gamma 0x9E3779B97F4A7C15 *)
let gamma_hi = 0x9E3779B9
let gamma_lo = 0x7F4A7C15

(* finalizer constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB *)
let c1_hi = 0xBF58476D
let c1_lo = 0x1CE4E5B9
let c2_hi = 0x94D049BB
let c2_lo = 0x133111EB

(* Global seed offset: xor-folded into every stream created after it
   is set, so `--seed N` re-seeds the whole stack without touching the
   per-component seeds scattered through experiment configs.  0 (the
   default) reproduces the historical streams exactly.  Set it once,
   before any worker domains spawn — it is a plain shared ref. *)
let global = ref 0
let set_global_seed s = global := s

let create ~seed =
  let v = Int64.of_int (seed lxor !global) in
  {
    s_hi = Int64.to_int (Int64.logand (Int64.shift_right_logical v 32) 0xFFFFFFFFL);
    s_lo = Int64.to_int (Int64.logand v 0xFFFFFFFFL);
    o_hi = 0;
    o_lo = 0;
  }

(* (a * b) mod 2^32, for 0 <= a, b < 2^32.  The 32x16 partial products
   stay under 2^48, inside OCaml's 63-bit int. *)
let[@inline] mul32_low a b =
  ((a * (b land 0xFFFF)) + (((a * (b lsr 16)) land 0xFFFF) lsl 16)) land mask32

(* floor (a * b / 2^32), for 0 <= a, b < 2^32. *)
let[@inline] mul32_high a b =
  let m0 = (a land 0xFFFF) * b in
  let m1 = (a lsr 16) * b in
  let mid = m0 + ((m1 land 0xFFFF) lsl 16) in
  ((m1 lsr 16) + (mid lsr 32)) land mask32

(* Advance the state by the golden gamma and run the splitmix64
   finalizer, leaving the 64-bit output in [o_hi]/[o_lo]. *)
let step t =
  let l = t.s_lo + gamma_lo in
  let s_lo = l land mask32 in
  let s_hi = (t.s_hi + gamma_hi + (l lsr 32)) land mask32 in
  t.s_lo <- s_lo;
  t.s_hi <- s_hi;
  (* z ^= z >>> 30 *)
  let zh = s_hi lxor (s_hi lsr 30) in
  let zl = s_lo lxor ((((s_hi lsl 2) land mask32) lor (s_lo lsr 30))) in
  (* z *= c1 *)
  let ph = (mul32_high zl c1_lo + mul32_low zl c1_hi + mul32_low zh c1_lo) land mask32 in
  let pl = mul32_low zl c1_lo in
  (* z ^= z >>> 27 *)
  let zh = ph lxor (ph lsr 27) in
  let zl = pl lxor ((((ph lsl 5) land mask32) lor (pl lsr 27))) in
  (* z *= c2 *)
  let ph = (mul32_high zl c2_lo + mul32_low zl c2_hi + mul32_low zh c2_lo) land mask32 in
  let pl = mul32_low zl c2_lo in
  (* z ^= z >>> 31 *)
  t.o_hi <- ph lxor (ph lsr 31);
  t.o_lo <- pl lxor ((((ph lsl 1) land mask32) lor (pl lsr 31)))

let bits64 t =
  step t;
  Int64.logor (Int64.shift_left (Int64.of_int t.o_hi) 32) (Int64.of_int t.o_lo)

let split t =
  step t;
  { s_hi = t.o_hi; s_lo = t.o_lo; o_hi = 0; o_lo = 0 }

(* Top 62 bits of the next output (historically [bits64 >>> 2], kept
   non-negative in OCaml's int). *)
let[@inline] raw62 t =
  step t;
  (t.o_hi lsl 30) lor (t.o_lo lsr 2)

(* Top 53 bits of the next output — the mantissa source for [float],
   exposed so box-averse callers can do their own (local, unboxed)
   float arithmetic. *)
let[@inline] raw53 t =
  step t;
  (t.o_hi lsl 21) lor (t.o_lo lsr 11)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  raw62 t mod bound

(* 2^53 *)
let two53 = 9007199254740992.0

(* Uniform in [0, 1): [float t 1.0], bit for bit; inlined, its result
   is never boxed. *)
let[@inline] unit_float t = float_of_int (raw53 t) /. two53

let float t bound = bound *. unit_float t

(* [float t 1.0 < p] without the boxed intermediate, and no draw at
   all when [p <= 0]. *)
let chance t p = p > 0.0 && unit_float t < p

let bool t =
  step t;
  t.o_lo land 1 = 1

(* Box-Muller: the deviate stays an unboxed local and leaves as an
   int. *)
let gaussian_int t ~mu ~sigma =
  let u1 = ref (unit_float t) in
  while !u1 <= 1e-12 do
    u1 := unit_float t
  done;
  let u2 = unit_float t in
  int_of_float
    (mu +. (sigma *. sqrt (-2.0 *. log !u1) *. cos (2.0 *. Float.pi *. u2)))

let exponential t ~mean =
  let rec draw () =
    let u = float t 1.0 in
    if u <= 1e-12 then draw () else -.mean *. log u
  in
  draw ()

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
