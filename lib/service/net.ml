(* Inter-machine links and outbox buffers.  See net.mli. *)

type config = { nc_lat_us : float; nc_gbps : float }

let default = { nc_lat_us = 15.0; nc_gbps = 10.0 }
let inflight = 256

type link = {
  lk_lat_c : int;
  lk_cpb : float;  (* serialization cycles per byte *)
  mutable lk_busy_until : int;  (* FIFO: when the wire frees up *)
  lk_ring : int array;  (* delivery times of the last [bound] msgs *)
  mutable lk_pos : int;
  mutable lk_n : int;
}

let lat_cycles c ~ghz =
  let l = int_of_float (c.nc_lat_us *. ghz *. 1e3) in
  if l < 1 then
    invalid_arg
      (Printf.sprintf "Net: nc_lat_us %g is below one cycle at %g GHz"
         c.nc_lat_us ghz);
  l

let link c ~ghz =
  if c.nc_gbps <= 0.0 then invalid_arg "Net.link: nc_gbps <= 0";
  {
    lk_lat_c = lat_cycles c ~ghz;
    (* bytes/cycle = gbps*1e9/8 / (ghz*1e9)  =>  cycles/byte: *)
    lk_cpb = 8.0 *. ghz /. c.nc_gbps;
    lk_busy_until = 0;
    lk_ring = Array.make inflight 0;
    lk_pos = 0;
    lk_n = 0;
  }

let route lk ~send ~bytes ~extra =
  let start = if lk.lk_busy_until > send then lk.lk_busy_until else send in
  (* In-flight window: stall behind the delivery of the message
     [bound] places ahead. *)
  let start =
    if lk.lk_n < Array.length lk.lk_ring then start
    else
      let oldest = lk.lk_ring.(lk.lk_pos) in
      if oldest > start then oldest else start
  in
  let tx = int_of_float (lk.lk_cpb *. float_of_int bytes) in
  lk.lk_busy_until <- start + tx;
  let delivery = start + tx + lk.lk_lat_c + extra in
  lk.lk_ring.(lk.lk_pos) <- delivery;
  lk.lk_pos <- (if lk.lk_pos + 1 = Array.length lk.lk_ring then 0 else lk.lk_pos + 1);
  if lk.lk_n < Array.length lk.lk_ring then lk.lk_n <- lk.lk_n + 1;
  delivery

(* ------------------------------------------------------------------ *)
(* Outboxes *)

let k_req = 0
let k_resp = 1
let k_gossip = 2
let k_nack = 3

type msgbuf = {
  mutable mb_n : int;
  mutable mb_kind : int array;
  mutable mb_dst : int array;
  mutable mb_a : int array;
  mutable mb_b : int array;
  mutable mb_t : int array;
}

let mb_create () =
  {
    mb_n = 0;
    mb_kind = Array.make 64 0;
    mb_dst = Array.make 64 0;
    mb_a = Array.make 64 0;
    mb_b = Array.make 64 0;
    mb_t = Array.make 64 0;
  }

let grow a = Array.append a (Array.make (Array.length a) 0)

(* Each outbox stays sorted by send time (see net.mli): the fleet's
   barrier merges the runs instead of sorting their union. *)
let mb_push b ~kind ~dst ~a ~b:bb ~t =
  if b.mb_n > 0 && t < b.mb_t.(b.mb_n - 1) then
    invalid_arg "Net.mb_push: send time before the previous message's";
  if b.mb_n = Array.length b.mb_kind then begin
    b.mb_kind <- grow b.mb_kind;
    b.mb_dst <- grow b.mb_dst;
    b.mb_a <- grow b.mb_a;
    b.mb_b <- grow b.mb_b;
    b.mb_t <- grow b.mb_t
  end;
  let i = b.mb_n in
  b.mb_kind.(i) <- kind;
  b.mb_dst.(i) <- dst;
  b.mb_a.(i) <- a;
  b.mb_b.(i) <- bb;
  b.mb_t.(i) <- t;
  b.mb_n <- i + 1

let mb_clear b = b.mb_n <- 0
