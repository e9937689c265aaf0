(** Mergeable log-bucketed latency histogram (HDR-style).

    Records non-negative integer values (cycles) into log-spaced
    buckets: values below [2^6] are exact, larger values quantize
    {e down} to a bucket lower bound with bounded relative error
    (< 3.2%).  Percentiles are rank-exact over the quantized domain:
    {!percentile} returns [quantize v_r] for the nearest-rank sample
    [v_r] (rank = ceil(p/100 * count)) — identical to quantizing the
    sorted reference.  Merge is element-wise addition, so it is
    associative and commutative; parallel shards merged in any
    grouping give byte-identical results to a serial run. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** Record one sample.  @raise Invalid_argument on a negative value. *)

val quantize : int -> int
(** The value [record v] reads back as (bucket lower bound). *)

val count : t -> int
val min_value : t -> int
val max_value : t -> int
val mean : t -> float
(** Exact mean of the {e raw} (unquantized) samples. *)

val percentile : t -> float -> int
(** [percentile t p] for [p] in (0,100]: the quantized value of the
    rank-th smallest sample, rank = ceil(p/100 * count); [0] when
    empty. *)

val merge_into : dst:t -> t -> unit

val merge_all : t array -> t
(** A fresh histogram holding every sample of the given ones (e.g. the
    per-worker shards of a run). *)

val equal : t -> t -> bool
(** Structural equality on the full state (buckets + moments). *)

(** {2 Windows}

    Rank-exact percentiles over "everything recorded since the last
    {!win_advance}", computed by diffing the live bucket vector
    against a snapshot.  Pure reads of the source histogram: an
    online sampler can take windowed percentiles without disturbing
    the end-of-run readout. *)

type window

val window : t -> window
(** Fresh window over [t], initially covering its whole history. *)

val win_advance : window -> unit
(** Snapshot the source's current state: the window now covers only
    samples recorded after this call. *)

val win_count : window -> int
(** Samples recorded in the current window. *)

val win_percentile : window -> float -> int
(** Nearest-rank percentile over the window's samples, quantized like
    {!percentile}; [0] on an empty window. *)

val win_percentile_many : window array -> float -> int
(** Percentile over the union of several windows (e.g. per-worker
    shards) — identical to merging their deltas first. *)
