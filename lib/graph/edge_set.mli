(** Sets of graph edges, the contents of index extents.

    An extent element is a pair [<parent_nid, nid>] (Definition 7 of the
    paper: the incoming edge of a node reachable by a label path). Pairs are
    packed into single OCaml ints — 31 bits per component — and stored as
    strictly increasing arrays, so set operations are linear merges and the
    natural order is (parent, child) lexicographic.

    The special parent [null] encodes the paper's [<NULL, root>] edge. *)

type t = private int array

val null : int
(** Pseudo-nid used as the parent of the root edge. *)

val pack : int -> int -> int
(** [pack u v] packs parent [u] (or {!null}) and child [v].
    @raise Invalid_argument when a component exceeds 31 bits. *)

val unpack : int -> int * int

val empty : t
val of_list : (int * int) list -> t
val of_packed_array : int array -> t
(** {!Repro_util.Int_sorted.of_unsorted}: sorts and dedups a copy, or
    returns the argument itself when it already is a set — so the caller
    gives the array up. *)

val unsafe_of_sorted : int array -> t
(** Wrap an array the caller {e guarantees} is a strictly increasing packed
    edge array, skipping the O(n) validation of {!of_packed_array} — for
    storage-layer caches returning arrays that were validated when first
    decoded. The caller must never mutate the array afterwards. *)

val to_list : t -> (int * int) list
val cardinal : t -> int
val is_empty : t -> bool
val mem : t -> int -> int -> bool
val union : t -> t -> t
val union_many : t list -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool
val iter : (int -> int -> unit) -> t -> unit
val fold : ('acc -> int -> int -> 'acc) -> 'acc -> t -> 'acc

val endpoints : t -> int array
(** Strictly increasing array of the child components — the nodes an extent
    denotes as query results. *)

val endpoints_after : before:int array -> removed:t -> added:t -> t -> int array
(** [endpoints_after ~before ~removed ~added t] is [endpoints t] for a set
    [t] that some set with endpoints [before] became by losing [removed]
    and gaining [added] (both disjoint from what they leave or join):
    linear merges and one scan of [t], without the sort. *)

val parents : t -> int array
(** Strictly increasing array of the parent components ({!null} excluded).
    Linear — the packed order already sorts parents. *)

val semijoin_endpoints : t -> int array -> int array
(** [semijoin_endpoints t frontier] is the {!endpoints} of the edges of
    [t] whose parent occurs in the sorted array [frontier], without
    materializing that edge set — one step of a multi-way extent join when
    only the reachable-node frontier is needed downstream. Exploits that
    packed edges sorted by [(parent lsl 31) lor child] are
    range-contiguous per parent: binary-searches (with galloping) the
    range of each wanted parent instead of scanning, or merge-walks runs
    when the frontier is dense. *)

val semijoin_children : t -> int array -> t
(** Keep the edges of the set whose {e child} occurs in the given sorted
    array (per-edge binary search; children are not range-contiguous).
    Used for backward selectivity reductions in multi-way joins. *)

val pp : Format.formatter -> t -> unit
