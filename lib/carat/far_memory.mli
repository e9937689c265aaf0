(** Sub-page-granularity transparent far memory via compiler blending
    (§V-C).

    Current far-memory systems either swap whole pages to the remote
    tier or require the programmer to annotate remotable structures.
    Compiler blending can decide and evacuate at {e object}
    granularity transparently.  This model makes the granularity
    argument quantitative: a heap of small objects with a skewed
    (Zipf) access pattern is split between a local tier of bounded
    capacity and a far tier; the placement policy is either
    page-granular (pages ranked by total heat — hot objects drag
    their cold page-mates along and cold ones steal local capacity)
    or object-granular (the blended compiler evacuates exactly the
    cold objects).

    Accesses are actually sampled and placed; nothing is fitted. *)

type granularity = Page of int  (** words per page *) | Object

type config = {
  local_capacity_words : int;
  granularity : granularity;
  local_cost : int;  (** cycles per local access *)
  far_cost : int;  (** cycles per far access *)
}

val default : local_capacity_words:int -> granularity -> config

type result = {
  granularity : granularity;
  local_fraction : float;  (** Fraction of heap resident locally. *)
  local_hit_rate : float;  (** Fraction of accesses served locally. *)
  slowdown_vs_all_local : float;
}

val simulate :
  objects:int ->
  object_words:int ->
  accesses:int ->
  zipf:float ->
  config ->
  result
(** Build the heap, sample [accesses] object references from a Zipf
    distribution with exponent [zipf], choose the resident set under
    the policy, and measure.
    @raise Invalid_argument naming [objects], [object_words] or
    [accesses] when not positive, [zipf] when negative or not finite,
    or [granularity] for a page of no words. *)

val sweep :
  objects:int ->
  object_words:int ->
  accesses:int ->
  zipf:float ->
  fractions:float list ->
  unit ->
  (float * result * result) list
(** For each local-capacity fraction: (fraction, page-granular result,
    object-granular result).  All the runs sample one Zipf table.
    @raise Invalid_argument as {!simulate} does, or naming [fractions]
    when an entry lies outside [\[0, 1\]]. *)
