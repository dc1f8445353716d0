(** Sets of integers represented as strictly increasing arrays.

    Used for node-id result sets and packed edge sets: compact, cache
    friendly, and set operations are linear merges or — when operand sizes
    are skewed — galloping (doubling binary-search) intersections in the
    style of adaptive set-intersection algorithms from inverted-index
    engines. All functions expect (and produce) strictly increasing arrays;
    {!of_unsorted} establishes the invariant.

    {b Aliasing.} A result may be one of the argument arrays, not a copy:
    [union a [||]] is [a], [union_many [s]] is [s], [of_unsorted] returns
    an input that is already a set. Arguments include arrays that other
    code shares — the endpoint arrays the index memoizes and [Server]
    hands to every reader domain — so a caller must never write into a
    result, nor into an argument after the call. *)

val of_unsorted : int array -> int array
(** Sort and remove duplicates. One scan decides the work from the input:
    none when it already ascends (the input itself is returned when it is
    strictly increasing), an LSD radix sort on 11-bit digits — only as
    many passes as the largest element needs — when it is long and
    non-negative, a comparison sort when it is short or holds a negative
    element. *)

(** A growable buffer of ints for kernels whose output size is not known
    in advance. [to_array] and [to_set] hand over the storage: push nothing
    after calling either. *)
module Buf : sig
  type t

  val create : int -> t
  (** [create capacity] — grows by doubling past [capacity]. *)

  val push : t -> int -> unit

  val to_array : t -> int array
  (** The pushed elements, in push order. *)

  val to_set : t -> int array
  (** The pushed elements as a set: {!of_unsorted}, sorting in the
      buffer's own storage. *)
end

val is_sorted_set : int array -> bool
(** True when the array is strictly increasing. *)

val lower_bound : int array -> int -> int -> int -> int
(** [lower_bound a lo hi x] is the first index in [\[lo, hi)] whose element
    is [>= x] ([hi] when none is). Plain binary search. *)

val gallop_lower_bound : int array -> int -> int -> int -> int
(** Same result as {!lower_bound}, but probes at doubling distances from
    [lo] first — O(log d) when the answer is [d] positions past [lo], which
    makes ascending repeated searches adaptive. *)

val mem : int array -> int -> bool
(** Binary search. *)

val overlaps_range : int array -> pos:int -> lo:int -> hi:int -> bool
(** [overlaps_range a ~pos ~lo ~hi] — does the sorted suffix [a[pos..)]
    contain an element in the closed range [\[lo, hi\]]? The block-skip
    primitive of the decode-on-gallop kernels: a [false] answer proves a
    compressed block advertising that key range in its header cannot
    contribute and is never decoded. Allocation-free. *)

val union : int array -> int array -> int array

val inter : int array -> int array -> int array
(** Adaptive: linear merge for comparable sizes, galloping the smaller set
    through the larger when sizes differ by more than ~16x. *)

val inter_linear : int array -> int array -> int array
(** The plain two-pointer linear merge (reference implementation; property
    tests check {!inter} against it). *)

val diff : int array -> int array -> int array
val subset : int array -> int array -> bool
val equal : int array -> int array -> bool

val union_many : int array list -> int array
(** Union of any number of sets by rounds of pairwise {!union}:
    O(n log k), each round one sequential merge per pair. *)
